//! What every workload shares: run parameters, the fixed-count measurement window,
//! the `(key, version)` value oracle, latency percentiles, store open/reopen on a
//! `FileDevice`, and the host probes.

use crate::device::{DeviceProbe, TimedDevice};
use crate::trace;
use lss_btree::kv::{KvOptions, KvStore};
use lss_core::device::{FileDevice, SegmentDevice};
use lss_core::util::mix64;
use lss_core::{GcPhase, LogStore, StoreConfig};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Segments of every workload's device: the smallest size at which the shipped
/// cleaning defaults (trigger at 32 free segments, 64 per cycle, 4 × 16 segments of
/// sort buffer) still leave the cleaner a choice of victims.
pub const NUM_SEGMENTS: usize = 256;
/// Set-ups per run; `setup_s` is their median (two slow ones — each ends in an
/// `fdatasync` of the whole preload on a shared disk — do not move it) and the last
/// one is measured on.
pub const SETUP_REPEATS: usize = 5;
/// Reopens per run; `reopen_s` is their median.
pub const REOPEN_REPEATS: usize = 9;
/// Equal slices of the window. `ops_s` is taken over the middle six by duration, so
/// two outlying slices either way (a disk hiccup, a burst of cleaning) do not move it.
pub const SLICES: u64 = 10;
/// The group-commit window `lss-server` ships with (its `--group-commit-us` default).
pub const GROUP_COMMIT_WINDOW_US: u64 = 200;

/// One run of one workload.
#[derive(Clone)]
pub struct Params {
    pub seed: u64,
    /// Requested window length; every window is `seconds ×` a frozen per-workload
    /// rate, i.e. a fixed operation count that is the same on every commit.
    pub seconds: f64,
    pub traced: bool,
    /// Fresh directory the run may fill and must leave empty.
    pub dir: PathBuf,
    /// Smoke-test geometry: 64 KiB segments and 1/500 of the keys.
    pub tiny: bool,
}

impl Params {
    /// `full` at benchmark scale, 1/500 of it (at least `floor`) in the smoke test.
    pub fn scaled(&self, full: u64, floor: u64) -> u64 {
        if self.tiny {
            (full / 500).max(floor)
        } else {
            full
        }
    }

    /// Operations in a window meant to last `share` of `--seconds` at `ops_per_s`
    /// (a multiple of the slice count of either kind of window).
    pub fn window_ops(&self, ops_per_s: f64, share: f64) -> u64 {
        let ops = (self.seconds * share * ops_per_s) as u64;
        ops.max(2 * SLICES) / (2 * SLICES) * (2 * SLICES)
    }

    /// A closed-loop window of `ops` operations; alternating in the traced pass.
    pub fn window(&self, ops: u64) -> Window {
        Window::start(ops, self.traced)
    }

    /// An unmeasured window of about `ops` operations (warm-up, side measurements).
    pub fn plain_window(ops: u64) -> Window {
        Window::start(ops.max(SLICES) / SLICES * SLICES, false)
    }

    /// The shipped store defaults at the benchmark's geometry.
    pub fn store_config(&self) -> StoreConfig {
        let mut config = StoreConfig::paper_default().with_num_segments(NUM_SEGMENTS);
        if self.tiny {
            config.segment_bytes = 64 * 1024;
        }
        config
    }

    pub fn device_path(&self) -> PathBuf {
        self.dir.join("device.lss")
    }
}

/// What a workload hands back: the operation tally and its metrics by name.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines (host stamp, per-slice values, layer table).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

// ---------------------------------------------------------------------------
// The window: a fixed number of operations cut into equal slices.
// ---------------------------------------------------------------------------

/// Shared by the client threads of one closed-loop window: hands out operations until
/// the fixed count is reached and timestamps every slice boundary as it completes.
///
/// The traced pass alternates: its window has twice the slices and spans are recorded
/// in every second one, so traced and untraced operations sit side by side in one
/// run (see [`Latencies::tracing_overhead`]).
pub struct Window {
    total: u64,
    slices: u64,
    alternate_tracing: bool,
    issued: AtomicU64,
    completed: AtomicU64,
    marks: Mutex<Vec<Instant>>,
    /// Free segments of the store, sampled at every slice end.
    free_segments: Mutex<Vec<f64>>,
}

impl Window {
    pub fn start(total: u64, alternate_tracing: bool) -> Self {
        let slices = if alternate_tracing {
            2 * SLICES
        } else {
            SLICES
        };
        assert!(
            total >= slices && total.is_multiple_of(slices),
            "window of {total} ops"
        );
        Self {
            total,
            slices,
            alternate_tracing,
            issued: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            marks: Mutex::new(vec![Instant::now()]),
            free_segments: Mutex::new(Vec::new()),
        }
    }

    /// Claim the next operation; `false` once the window's count is handed out.
    pub fn claim(&self) -> bool {
        self.issued.fetch_add(1, Ordering::Relaxed) < self.total
    }

    /// Report one claimed operation complete; `true` when it ends a slice.
    pub fn done(&self) -> bool {
        let n = self.completed.fetch_add(1, Ordering::Relaxed) + 1;
        let per_slice = self.total / self.slices;
        let ends_slice = n.is_multiple_of(per_slice);
        if ends_slice {
            if self.alternate_tracing {
                // Slices 1, 3, 5, … (counting from 0) are the traced ones.
                trace::set_enabled(n / per_slice % 2 == 1 && n < self.total);
            }
            self.marks
                .lock()
                .expect("marks poisoned")
                .push(Instant::now());
        }
        ends_slice
    }

    /// Seconds each slice took, in order.
    pub fn slice_seconds(&self) -> Vec<f64> {
        let mut marks = self.marks.lock().expect("marks poisoned").clone();
        marks.sort();
        marks
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect()
    }

    /// Operations per second over the middle 60 % of the slices by duration (the
    /// interquartile mean: slices differ in how much cleaning falls into them, so
    /// a plain median would pick a different amount of work on every seed).
    pub fn ops_s(&self) -> f64 {
        let mut seconds = self.slice_seconds();
        seconds.sort_by(|a, b| a.total_cmp(b));
        let trim = seconds.len() / 5;
        let kept = &seconds[trim..seconds.len() - trim];
        let per_slice = (self.total / self.slices) as f64;
        per_slice * kept.len() as f64 / kept.iter().sum::<f64>()
    }

    /// Record the store's free-segment count (call when [`Window::done`] ends a slice).
    pub fn sample_free_segments(&self, free: usize) {
        self.free_segments
            .lock()
            .expect("samples poisoned")
            .push(free as f64);
    }

    /// Mean free segments over the slice ends: where in a cleaning cycle the window
    /// happens to stop must not decide `space_amp`.
    pub fn mean_free_segments(&self) -> f64 {
        let samples = self.free_segments.lock().expect("samples poisoned");
        samples.iter().sum::<f64>() / samples.len().max(1) as f64
    }

    pub fn elapsed_s(&self) -> f64 {
        self.slice_seconds().iter().sum()
    }
}

pub fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(|a, b| a.total_cmp(b));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Latency samples in nanoseconds (saturating at ~4.3 s). The lowest bit of a sample
/// is not time: it says whether spans were being recorded when the sample was taken,
/// which costs 1 ns of precision and saves every workload a second set of vectors.
#[derive(Default)]
pub struct Latencies(Vec<u32>);

impl Latencies {
    pub fn with_capacity(n: usize) -> Self {
        Self(Vec::with_capacity(n))
    }

    pub fn push(&mut self, since: Instant) {
        self.push_ns(since.elapsed().as_nanos() as u64);
    }

    pub fn push_ns(&mut self, ns: u64) {
        let sample = ns.min(u32::MAX as u64) as u32;
        self.0.push(sample & !1 | trace::enabled() as u32);
    }

    /// What recording spans adds to an operation, as a share of the operation: the
    /// mean latency of the traced samples over that of the untraced ones, minus 1,
    /// each mean taken below its group's 99th percentile — cleaning stalls and commits
    /// fall unevenly into the two groups and would otherwise decide the sign.
    pub fn tracing_overhead(&self) -> f64 {
        let typical = |traced: u32| {
            let mut group: Vec<u32> = self
                .0
                .iter()
                .filter(|&&n| n & 1 == traced)
                .copied()
                .collect();
            group.sort_unstable();
            group.truncate((group.len() as f64 * 0.99) as usize);
            group.iter().map(|&n| n as f64).sum::<f64>() / group.len().max(1) as f64
        };
        match (typical(1), typical(0)) {
            (traced, untraced) if untraced > 0.0 => traced / untraced - 1.0,
            _ => 0.0,
        }
    }

    pub fn merge(&mut self, other: Latencies) {
        self.0.extend(other.0);
    }

    pub fn sort(&mut self) {
        self.0.sort_unstable();
    }

    /// Percentile in microseconds; call [`Latencies::sort`] first. 0 when empty.
    pub fn us(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let at = ((self.0.len() - 1) as f64 * p).round() as usize;
        self.0[at] as f64 / 1e3
    }

    pub fn mean_us(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().map(|&n| n as f64).sum::<f64>() / self.0.len() as f64 / 1e3
    }

    /// Samples slower than `limit_ns`, and the seconds they add up to.
    pub fn slower_than(&self, limit_ns: u32) -> (u64, f64) {
        let slow = self.0.iter().filter(|&&n| n > limit_ns);
        (
            slow.clone().count() as u64,
            slow.map(|&n| n as f64).sum::<f64>() / 1e9,
        )
    }
}

// ---------------------------------------------------------------------------
// The oracle: every value says which key and which version it is.
// ---------------------------------------------------------------------------

/// Bytes every value starts with: key id, version, length.
pub const VALUE_HEADER: usize = 16;

/// Overwrite `buf` with the only value `(id, version, len)` may have: a header
/// naming all three, then filler derived from them.
pub fn fill_value(buf: &mut Vec<u8>, id: u64, version: u32, len: usize) {
    assert!(
        len >= VALUE_HEADER,
        "value of {len} bytes cannot carry its header"
    );
    buf.clear();
    buf.extend_from_slice(&id.to_le_bytes());
    buf.extend_from_slice(&version.to_le_bytes());
    buf.extend_from_slice(&(len as u32).to_le_bytes());
    buf.resize(len, 0);
    let mut word = mix64(id ^ (version as u64) << 40);
    for chunk in buf[VALUE_HEADER..].chunks_mut(8) {
        chunk.copy_from_slice(&word.to_le_bytes()[..chunk.len()]);
        word = word.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23);
    }
}

/// True if `got` is exactly version `version` of key `id`: header and every filler
/// byte as [`fill_value`] writes them.
pub fn value_is(got: &[u8], id: u64, version: u32, scratch: &mut Vec<u8>) -> bool {
    if got.len() < VALUE_HEADER {
        return false;
    }
    fill_value(scratch, id, version, got.len());
    scratch.as_slice() == got
}

/// Bytes of every key of the KV workloads.
pub const KEY_BYTES: usize = 24;

/// Key `idx` of client thread `thread`: fixed width, so byte order is index order
/// and every thread's keys form one contiguous range.
pub fn key(thread: usize, idx: u64) -> [u8; KEY_BYTES] {
    let mut key = *b"k00:00000000000000000000";
    key[1] = b'0' + (thread / 10) as u8;
    key[2] = b'0' + (thread % 10) as u8;
    let mut rest = idx;
    for digit in key[4..].iter_mut().rev() {
        *digit = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    key
}

/// What one client thread knows about the keys it alone writes: the version of each
/// and whether it is live. Versions only grow; a delete takes one too.
pub struct Model {
    pub thread: usize,
    /// `version << 1 | live` per key index.
    state: Vec<u32>,
}

impl Model {
    /// Every key live at version 1 — the state a preload leaves.
    pub fn preloaded(thread: usize, keys: u64) -> Self {
        Self {
            thread,
            state: vec![1 << 1 | 1; keys as usize],
        }
    }

    pub fn keys(&self) -> u64 {
        self.state.len() as u64
    }

    /// The id values of key `idx` carry.
    pub fn id(&self, idx: u64) -> u64 {
        (self.thread as u64) << 32 | idx
    }

    /// The live version of key `idx`, or `None` if it is deleted.
    pub fn live_version(&self, idx: u64) -> Option<u32> {
        let state = self.state[idx as usize];
        (state & 1 == 1).then_some(state >> 1)
    }

    /// The version the next write (or delete) of key `idx` takes.
    pub fn next_version(&self, idx: u64) -> u32 {
        (self.state[idx as usize] >> 1) + 1
    }

    pub fn raw(&self, idx: u64) -> u32 {
        self.state[idx as usize]
    }

    pub fn set(&mut self, idx: u64, version: u32, live: bool) {
        self.state[idx as usize] = version << 1 | live as u32;
    }

    /// True if `got` is exactly the live keys of `[from, to)` at their versions, in
    /// order — nothing missing, stale, corrupt or resurrected.
    pub fn range_matches<V: AsRef<[u8]>>(
        &self,
        from: u64,
        to: u64,
        got: &[(Vec<u8>, V)],
        scratch: &mut Vec<u8>,
    ) -> bool {
        let mut got = got.iter();
        for idx in from..to.min(self.keys()) {
            let Some(version) = self.live_version(idx) else {
                continue;
            };
            let Some((k, v)) = got.next() else {
                return false;
            };
            if k[..] != key(self.thread, idx)
                || !value_is(v.as_ref(), self.id(idx), version, scratch)
            {
                return false;
            }
        }
        got.next().is_none()
    }

    /// Scan this thread's whole key range in `kv` and count the keys that are not in
    /// their model state.
    pub fn wrong_keys(&self, kv: &KvStore) -> u64 {
        const CHUNK: u64 = 4096;
        let mut scratch = Vec::new();
        let mut wrong = 0;
        for from in (0..self.keys()).step_by(CHUNK as usize) {
            let to = (from + CHUNK).min(self.keys());
            match kv.range(&key(self.thread, from), &key(self.thread, to)) {
                Ok(got) if self.range_matches(from, to, &got, &mut scratch) => {}
                // Count key by key what the chunk comparison only flagged.
                _ => {
                    for idx in from..to {
                        let got = kv.get(&key(self.thread, idx)).ok().flatten();
                        wrong += !self.matches(idx, got.as_deref(), &mut scratch) as u64;
                    }
                }
            }
        }
        wrong
    }

    /// True if `got` is what a read of key `idx` must return.
    pub fn matches(&self, idx: u64, got: Option<&[u8]>, scratch: &mut Vec<u8>) -> bool {
        match (self.live_version(idx), got) {
            (None, None) => true,
            (Some(version), Some(got)) => value_is(got, self.id(idx), version, scratch),
            _ => false,
        }
    }
}

// ---------------------------------------------------------------------------
// Stores on a FileDevice.
// ---------------------------------------------------------------------------

/// A fresh store on a fresh device file; behind a [`TimedDevice`] in the traced pass.
pub fn create_store(p: &Params) -> Result<(LogStore, Option<Arc<DeviceProbe>>), String> {
    let config = p.store_config();
    let file = FileDevice::create(p.device_path(), config.segment_bytes, config.num_segments)
        .map_err(|e| format!("create device: {e}"))?;
    let (device, probe): (Box<dyn SegmentDevice>, _) = if p.traced {
        let (timed, probe) = TimedDevice::new(file);
        (Box::new(timed), Some(probe))
    } else {
        (Box::new(file), None)
    };
    let store = LogStore::open_with_device(config, device).map_err(|e| format!("open: {e}"))?;
    if p.traced {
        record_cleaning_cycles(&store);
    }
    Ok((store, probe))
}

/// Open the run's existing device file.
pub fn open_device(p: &Params) -> Result<FileDevice, String> {
    let config = p.store_config();
    FileDevice::open(p.device_path(), config.segment_bytes, config.num_segments)
        .map_err(|e| format!("reopen device: {e}"))
}

/// The path `lss-server` takes on restart: open the file, scan and replay it.
pub fn recover_store(p: &Params) -> Result<LogStore, String> {
    LogStore::recover_with_device(p.store_config(), Box::new(open_device(p)?))
        .map_err(|e| format!("recover: {e}"))
}

/// The KV options `lss-server` runs with: the library defaults plus its 200 µs
/// group-commit window.
pub fn kv_options() -> KvOptions {
    KvOptions {
        group_commit_window_us: GROUP_COMMIT_WINDOW_US,
        ..KvOptions::default()
    }
}

/// [`recover_store`], then the KV layer on top of it.
pub fn recover_kv(p: &Params) -> Result<KvStore, String> {
    KvStore::open_with(recover_store(p)?, kv_options()).map_err(|e| format!("open kv: {e}"))
}

/// Which write of the crash burst the power fails at: early enough that both crash
/// workloads reach it at any scale, and another instant of a commit on every seed.
pub fn power_cut_at_write(p: &Params) -> u64 {
    2 + p.seed % 7
}

/// "Crash": put back the pre-image of every segment no `sync()` covered before the
/// power failed. The store that wrote them must already be dropped.
pub fn discard_unsynced_writes(p: &Params, probe: &DeviceProbe) -> Result<usize, String> {
    let file = open_device(p)?;
    let preimages = probe.take_unsynced_preimages();
    for (seg, image) in &preimages {
        file.write_segment(*seg, image)
            .map_err(|e| format!("restore {seg}: {e}"))?;
    }
    Ok(preimages.len())
}

/// Record a `cleaner.cycle` span per cleaning cycle through the store's public GC
/// phase hook: from the cycle's first claimed victim to its sync.
fn record_cleaning_cycles(store: &LogStore) {
    thread_local! {
        static OPEN_CYCLE: Cell<Option<u64>> = const { Cell::new(None) };
    }
    store.set_gc_phase_hook(Some(Arc::new(|token, phase, _victim| match phase {
        GcPhase::Claimed
            if OPEN_CYCLE.get().is_none() && trace::begin_detached("cleaner.cycle") =>
        {
            OPEN_CYCLE.set(Some(token));
        }
        GcPhase::Synced if OPEN_CYCLE.get() == Some(token) => {
            OPEN_CYCLE.set(None);
            trace::end_detached();
        }
        _ => {}
    })));
}

/// Run `step` `times` times, dropping each result before the next; returns the last
/// one and the median seconds of a step.
fn repeat<T>(
    times: usize,
    mut step: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut seconds = Vec::new();
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let start = Instant::now();
        last = Some(step()?);
        seconds.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one repeat"), median(seconds)))
}

impl Params {
    /// Run `setup` [`SETUP_REPEATS`] times (it creates the device file anew each time;
    /// once in the smoke test, which checks no timing); returns the last instance and
    /// the median seconds.
    pub fn repeat_setup<T>(
        &self,
        setup: impl FnMut() -> Result<T, String>,
    ) -> Result<(T, f64), String> {
        repeat(if self.tiny { 1 } else { SETUP_REPEATS }, setup)
    }

    /// Run `reopen` [`REOPEN_REPEATS`] times (once in the smoke test); returns the last
    /// instance and the median seconds.
    pub fn repeat_reopen<T>(
        &self,
        reopen: impl FnMut() -> Result<T, String>,
    ) -> Result<(T, f64), String> {
        repeat(if self.tiny { 1 } else { REOPEN_REPEATS }, reopen)
    }
}

// ---------------------------------------------------------------------------
// Host probes.
// ---------------------------------------------------------------------------

/// Peak resident set of this process in MiB (`VmHWM`), 0 where `/proc` has none.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// File-system type of the mount holding `path` (longest matching mount point).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, at, kind) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(at).then(|| (at.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}
