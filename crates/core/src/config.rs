//! Store configuration: geometry, cleaning parameters and the write-path and cleaner
//! sizing a deployment tunes. The paper's design ablations (stream separation, the two
//! `up2` readings) are simulator experiments and live in `lss-sim`'s `SimConfig`.

use crate::error::{Error, Result};
use crate::freq::MAX_TEMPERATURE_CLASSES;
use crate::policy::PolicyKind;
use serde::{Deserialize, Serialize};

/// Parameters controlling when cleaning runs and how much it does per cycle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CleaningConfig {
    /// The *upper mark* of cleaning (paper §6.1.1 triggers at 32): the free-segment
    /// level below which a writer starts looking for a cycle to run before its put —
    /// but between this mark and the must-clean floor
    /// ([`reserved_free_segments`](Self::reserved_free_segments) +
    /// [`StoreConfig::write_streams`]) it runs a cycle only if the policy's batch is
    /// nearly free (≥ 0.9 empty on average); anything fuller waits for the floor, so a
    /// busy store's free pool sits there, not here. A trigger at or below the floor
    /// leaves no band: cleaning simply starts at the trigger.
    pub trigger_free_segments: usize,
    /// The full-batch budget: in-use segments cleaned per cleaning cycle, in aggregate
    /// across [`StoreConfig::cleaner_threads`] concurrent cycles (paper §6.1.1 uses 64;
    /// multi-log uses 1). A writer's cycle at the must-clean floor takes at most as
    /// many victims as the floor holds segments. Policies may override via
    /// [`crate::policy::CleaningPolicy::preferred_batch`].
    pub segments_per_cycle: usize,
    /// Number of free segments that must always remain available as the destination of
    /// GC relocations; allocation for user data never dips into this reserve. With
    /// concurrent cleaning ([`StoreConfig::cleaner_threads`] > 1) every in-flight cycle
    /// may hold one reserve segment as its output, so keeping this at least as large as
    /// `cleaner_threads` avoids cycles abandoning victims under distress.
    pub reserved_free_segments: usize,
    /// Fraction of the *current maximum sealed emptiness* a segment tagged with the
    /// coldest temperature class must reach before policy-driven victim selection will
    /// consider it (only in effect when [`StoreConfig::gc_temperature_classes`] > 1).
    /// Cold segments fill with pages that are rarely overwritten, so cleaning them
    /// early just re-copies the same survivors; a higher dead-fraction bar lets them
    /// ripen. The bar is relative — `0.75` means "within 75% of the emptiest sealed
    /// segment" — so cold segments can never be starved out of the victim pool
    /// entirely (the emptiest segment always qualifies, whatever its class). `0.0`
    /// disables the filter; the distress (force-greedy) path always ignores it.
    pub cold_victim_min_emptiness: f64,
}

impl Default for CleaningConfig {
    fn default() -> Self {
        Self {
            trigger_free_segments: 32,
            segments_per_cycle: 64,
            reserved_free_segments: 4,
            cold_victim_min_emptiness: 0.75,
        }
    }
}

/// Configuration of a [`crate::LogStore`]. The simulator has its own `SimConfig`
/// (`lss-sim`), which shares [`CleaningConfig`] and adds the paper's ablation switches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreConfig {
    /// Byte size of a segment, the unit of space reclamation (paper default: 2 MiB).
    pub segment_bytes: usize,
    /// Number of physical segments on the device.
    pub num_segments: usize,
    /// Nominal page size in bytes (paper default: 4 KiB). The store accepts variable-size
    /// payloads up to the segment payload capacity; this value sizes internal buffers and
    /// is the unit used by fill-factor helpers.
    pub page_bytes: usize,
    /// Cleaning policy to use.
    pub policy: PolicyKind,
    /// Cleaning trigger/batch parameters.
    pub cleaning: CleaningConfig,
    /// Size of the user-write sort buffer, in segments (paper Figure 4; 16 is the knee).
    /// A value of 0 disables buffering: each user write goes straight to the open segment.
    ///
    /// This budget is **per write stream**: each of the
    /// [`write_streams`](StoreConfig::write_streams) shards batches this many segments'
    /// worth of writes before draining, because the batch size is what the paper's
    /// `up2` carry-forward estimates and frequency-separated packing depend on.
    /// Aggregate buffered (volatile) memory is therefore `write_streams ×
    /// sort_buffer_segments` segments.
    pub sort_buffer_segments: usize,
    /// Number of independent write streams the store shards its write path into.
    ///
    /// Pages are routed to a stream by page-id hash; each stream owns its own slice of
    /// the sort buffer and its own open output segments, so writers on different streams
    /// append in parallel and only touch the shared coordination layer (segment table,
    /// policy, free-space accounting) for short allocation/seal/accounting operations.
    /// `1` reproduces the single-write-mutex behaviour of earlier versions. Writes to
    /// the *same* page always hit the same stream, preserving per-page ordering.
    pub write_streams: usize,
    /// Maximum number of cleaning cycles that may overlap, and the divisor of each
    /// cycle's share of [`CleaningConfig::segments_per_cycle`]. It is not a thread
    /// count: the store spawns no cleaner threads, and every cycle runs on the thread
    /// that started it (the store's write-behind thread, pacing after a batch or
    /// escalating when a drain runs out of segments; a flush out of segments; or
    /// [`crate::LogStore::clean_now`]); a caller past the cap waits for a slot.
    ///
    /// Cycles run on **disjoint victim sets**: victims are claimed atomically in the
    /// segment table at selection time, so two cycles can never pick the same slot, and
    /// relocations commit by per-page compare-and-swap, so concurrent commits are safe.
    /// `1` reproduces the strictly serialised single-cycle behaviour of earlier
    /// versions.
    pub cleaner_threads: usize,
    /// Number of temperature classes the cleaner splits its relocation output across.
    ///
    /// `1` (the default) reproduces the temperature-unaware cleaner bit-for-bit: one GC
    /// output stream per output log, no survivor classification, no segment temperature
    /// tags, and no cold-victim filtering. With `N > 1`, each cleaning cycle samples
    /// every survivor's decayed write count from the store's [`crate::freq::PageHeat`]
    /// sketch, ranks the batch into `N` classes ([`crate::freq::classify_heat`]) and
    /// relocates each class into its own open output segment — so cold survivors pack
    /// together and stop being dragged along every time a hot neighbour dies. Output
    /// segments inherit their class as a temperature tag, which victim selection uses
    /// to hold coldest-class segments back until they pass
    /// [`CleaningConfig::cold_victim_min_emptiness`].
    pub gc_temperature_classes: usize,
    /// If true, a second write to a page that is still sitting in the (unflushed) sort
    /// buffer overwrites it in place instead of appending a new copy. Real systems do
    /// this; the paper's simulator does not (every user write is a page write), so the
    /// simulator runs with this disabled.
    pub absorb_updates_in_buffer: bool,
}

impl StoreConfig {
    /// The paper's simulation geometry: 4 KiB pages, 2 MiB segments (512 pages each).
    /// `num_segments` is left at a laptop-friendly default and should be adjusted with
    /// [`StoreConfig::with_num_segments`] or [`StoreConfig::with_capacity_bytes`].
    pub fn paper_default() -> Self {
        Self {
            segment_bytes: 2 * 1024 * 1024,
            num_segments: 1024,
            page_bytes: 4096,
            policy: PolicyKind::Mdc,
            cleaning: CleaningConfig::default(),
            sort_buffer_segments: 16,
            write_streams: 4,
            cleaner_threads: 2,
            gc_temperature_classes: 1,
            absorb_updates_in_buffer: true,
        }
    }

    /// A tiny geometry suitable for unit tests and doc examples: 4 KiB segments holding
    /// 16 × 256-byte pages, 64 segments total.
    pub fn small_for_tests() -> Self {
        Self {
            segment_bytes: 4096,
            num_segments: 64,
            page_bytes: 256,
            policy: PolicyKind::Greedy,
            cleaning: CleaningConfig {
                trigger_free_segments: 4,
                segments_per_cycle: 4,
                reserved_free_segments: 2,
                ..CleaningConfig::default()
            },
            sort_buffer_segments: 2,
            write_streams: 2,
            // Serialised cycles by default so existing tests stay deterministic; the
            // concurrency suites opt into 2 or 4 explicitly.
            cleaner_threads: 1,
            gc_temperature_classes: 1,
            absorb_updates_in_buffer: false,
        }
    }

    /// Builder-style: set the cleaning policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Builder-style: set the number of physical segments.
    pub fn with_num_segments(mut self, n: usize) -> Self {
        self.num_segments = n;
        self
    }

    /// Builder-style: size the device to hold roughly `bytes` of raw capacity.
    pub fn with_capacity_bytes(mut self, bytes: u64) -> Self {
        self.num_segments = ((bytes as usize) / self.segment_bytes).max(1);
        self
    }

    /// Builder-style: set the sort-buffer size in segments.
    pub fn with_sort_buffer_segments(mut self, n: usize) -> Self {
        self.sort_buffer_segments = n;
        self
    }

    /// Builder-style: set the number of independent write streams.
    pub fn with_write_streams(mut self, n: usize) -> Self {
        self.write_streams = n;
        self
    }

    /// Builder-style: set the maximum number of overlapping cleaning cycles.
    pub fn with_cleaner_threads(mut self, n: usize) -> Self {
        self.cleaner_threads = n;
        self
    }

    /// Builder-style: set the number of GC output temperature classes (see
    /// [`StoreConfig::gc_temperature_classes`]; `1` disables classification).
    pub fn with_gc_temperature_classes(mut self, n: usize) -> Self {
        self.gc_temperature_classes = n;
        self
    }

    /// Apply the environment overrides honoured across the benches and the CI stress
    /// job, clamped to the ranges validation accepts:
    ///
    /// * `LSS_WRITE_STREAMS` — number of independent write streams (1..=16);
    /// * `LSS_CLEANER_THREADS` — maximum concurrent cleaning cycles (1..=8);
    /// * `LSS_GC_TEMPERATURE_CLASSES` — GC output temperature classes (1..=8).
    pub fn with_env_overrides(self) -> Self {
        self.with_overrides_from(|name| std::env::var(name).ok())
    }

    /// The injectable core of [`StoreConfig::with_env_overrides`]: the same override
    /// logic over an arbitrary variable lookup. Tests use this with a closure instead
    /// of mutating the process environment (`setenv` racing `getenv` on other threads
    /// is undefined behaviour on common libcs).
    pub fn with_overrides_from(mut self, lookup: impl Fn(&str) -> Option<String>) -> Self {
        let get_usize = |name: &str| lookup(name).and_then(|v| v.parse::<usize>().ok());
        if let Some(n) = get_usize("LSS_WRITE_STREAMS") {
            self.write_streams = n.clamp(1, 16);
        }
        if let Some(n) = get_usize("LSS_CLEANER_THREADS") {
            self.cleaner_threads = n.clamp(1, 8);
        }
        if let Some(n) = get_usize("LSS_GC_TEMPERATURE_CLASSES") {
            self.gc_temperature_classes = n.clamp(1, MAX_TEMPERATURE_CLASSES);
        }
        self
    }

    /// Number of fixed-size pages that fit into one segment payload area.
    ///
    /// This is the `S` of the paper (512 with the default 4 KiB pages / 2 MiB segments).
    /// It accounts for the per-segment header/entry overhead of the on-device layout.
    pub fn pages_per_segment(&self) -> usize {
        let payload = crate::layout::payload_capacity(self.segment_bytes, self.page_bytes);
        payload / self.page_bytes
    }

    /// Total number of fixed-size page frames the device provides.
    pub fn physical_pages(&self) -> usize {
        self.pages_per_segment() * self.num_segments
    }

    /// Number of distinct logical pages that corresponds to a given fill factor `F`
    /// (the fraction of physical space occupied by current page versions).
    pub fn logical_pages_for_fill_factor(&self, fill_factor: f64) -> usize {
        assert!(
            fill_factor > 0.0 && fill_factor < 1.0,
            "fill factor must be in (0, 1), got {fill_factor}"
        );
        ((self.physical_pages() as f64) * fill_factor).floor() as usize
    }

    /// Validate the configuration, returning a descriptive error if it cannot work.
    pub fn validate(&self) -> Result<()> {
        if self.segment_bytes == 0 || self.page_bytes == 0 {
            return Err(Error::InvalidConfig(
                "segment and page sizes must be non-zero".into(),
            ));
        }
        if self.page_bytes > crate::layout::payload_capacity(self.segment_bytes, self.page_bytes) {
            return Err(Error::InvalidConfig(format!(
                "page size {} does not fit in a segment of {} bytes after layout overhead",
                self.page_bytes, self.segment_bytes
            )));
        }
        if self.num_segments < 4 {
            return Err(Error::InvalidConfig(format!(
                "at least 4 segments are required, got {}",
                self.num_segments
            )));
        }
        if self.cleaning.reserved_free_segments + 1 >= self.num_segments {
            return Err(Error::InvalidConfig(
                "reserved_free_segments must be much smaller than num_segments".into(),
            ));
        }
        if self.cleaning.trigger_free_segments <= self.cleaning.reserved_free_segments {
            return Err(Error::InvalidConfig(
                "trigger_free_segments must exceed reserved_free_segments".into(),
            ));
        }
        // The cap keeps the per-stream open-log bound meaningful: at 16 streams each
        // stream still gets 32/16 = 2 open logs, so total user opens never exceed the
        // multi-log policy's 32 regardless of the stream count.
        if self.write_streams == 0 || self.write_streams > 16 {
            return Err(Error::InvalidConfig(format!(
                "write_streams must be in 1..=16, got {}",
                self.write_streams
            )));
        }
        // Bounded so a runaway configuration cannot pin an unbounded number of claimed
        // victims; 8 concurrent cycles saturate any device this store targets.
        if self.cleaner_threads == 0 || self.cleaner_threads > 8 {
            return Err(Error::InvalidConfig(format!(
                "cleaner_threads must be in 1..=8, got {}",
                self.cleaner_threads
            )));
        }
        // Bounded so the composite (class, log) GC-stream keys stay within u16 and the
        // per-class statistics arrays stay fixed-width.
        if self.gc_temperature_classes == 0 || self.gc_temperature_classes > MAX_TEMPERATURE_CLASSES
        {
            return Err(Error::InvalidConfig(format!(
                "gc_temperature_classes must be in 1..={MAX_TEMPERATURE_CLASSES}, got {}",
                self.gc_temperature_classes
            )));
        }
        if !(0.0..=1.0).contains(&self.cleaning.cold_victim_min_emptiness) {
            return Err(Error::InvalidConfig(format!(
                "cold_victim_min_emptiness must be in [0, 1], got {}",
                self.cleaning.cold_victim_min_emptiness
            )));
        }
        if self.write_streams * 2 >= self.num_segments {
            return Err(Error::InvalidConfig(format!(
                "num_segments ({}) must exceed 2 * write_streams ({}): every stream \
                 needs at least an open segment plus allocation headroom",
                self.num_segments,
                2 * self.write_streams
            )));
        }
        Ok(())
    }
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_has_512_pages_per_segment_before_overhead() {
        let c = StoreConfig::paper_default();
        // Layout overhead costs a few page slots; the remaining capacity must still be
        // close to the nominal 512 pages of the paper.
        let pps = c.pages_per_segment();
        assert!((500..=512).contains(&pps), "pages per segment = {pps}");
    }

    #[test]
    fn small_config_validates() {
        StoreConfig::small_for_tests().validate().unwrap();
        StoreConfig::paper_default().validate().unwrap();
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = StoreConfig::small_for_tests();
        c.num_segments = 2;
        assert!(c.validate().is_err());

        let mut c = StoreConfig::small_for_tests();
        c.page_bytes = c.segment_bytes * 2;
        assert!(c.validate().is_err());

        let mut c = StoreConfig::small_for_tests();
        c.cleaning.trigger_free_segments = c.cleaning.reserved_free_segments;
        assert!(c.validate().is_err());

        let mut c = StoreConfig::small_for_tests();
        c.write_streams = 0;
        assert!(c.validate().is_err());
        c.write_streams = 17; // above the cap that keeps total open logs bounded
        assert!(c.validate().is_err());
        c.num_segments = 20;
        c.write_streams = 10; // 2 * 10 >= 20 segments
        assert!(c.validate().is_err());

        let mut c = StoreConfig::small_for_tests();
        c.cleaner_threads = 0;
        assert!(c.validate().is_err());
        c.cleaner_threads = 9; // above the concurrent-cycle cap
        assert!(c.validate().is_err());

        let mut c = StoreConfig::small_for_tests();
        c.gc_temperature_classes = 0;
        assert!(c.validate().is_err());
        c.gc_temperature_classes = MAX_TEMPERATURE_CLASSES + 1;
        assert!(c.validate().is_err());

        let mut c = StoreConfig::small_for_tests();
        c.cleaning.cold_victim_min_emptiness = 1.5;
        assert!(c.validate().is_err());
        c.cleaning.cold_victim_min_emptiness = -0.1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn temperature_class_overrides_and_builder() {
        let c = StoreConfig::small_for_tests().with_gc_temperature_classes(4);
        assert_eq!(c.gc_temperature_classes, 4);
        c.validate().unwrap();

        let c = StoreConfig::small_for_tests().with_overrides_from(|name| {
            (name == "LSS_GC_TEMPERATURE_CLASSES").then(|| "3".to_string())
        });
        assert_eq!(c.gc_temperature_classes, 3);
        // Clamped into the validated range rather than rejected.
        let c = StoreConfig::small_for_tests().with_overrides_from(|name| {
            (name == "LSS_GC_TEMPERATURE_CLASSES").then(|| "99".to_string())
        });
        assert_eq!(c.gc_temperature_classes, MAX_TEMPERATURE_CLASSES);
        let c = StoreConfig::small_for_tests().with_overrides_from(|name| {
            (name == "LSS_GC_TEMPERATURE_CLASSES").then(|| "0".to_string())
        });
        assert_eq!(c.gc_temperature_classes, 1);
    }

    #[test]
    fn fill_factor_helper_scales_with_f() {
        let c = StoreConfig::small_for_tests();
        let p50 = c.logical_pages_for_fill_factor(0.5);
        let p80 = c.logical_pages_for_fill_factor(0.8);
        assert!(p80 > p50);
        assert!(p80 <= c.physical_pages());
    }

    #[test]
    #[should_panic(expected = "fill factor")]
    fn fill_factor_of_one_panics() {
        StoreConfig::small_for_tests().logical_pages_for_fill_factor(1.0);
    }

    #[test]
    fn builder_methods_compose() {
        let c = StoreConfig::paper_default()
            .with_policy(PolicyKind::Greedy)
            .with_num_segments(128)
            .with_sort_buffer_segments(4)
            .with_write_streams(8)
            .with_cleaner_threads(4);
        assert_eq!(c.policy, PolicyKind::Greedy);
        assert_eq!(c.num_segments, 128);
        assert_eq!(c.sort_buffer_segments, 4);
        assert_eq!(c.write_streams, 8);
        assert_eq!(c.cleaner_threads, 4);
        c.validate().unwrap();
    }

    #[test]
    fn capacity_builder_rounds_down_to_segments() {
        let c = StoreConfig::paper_default().with_capacity_bytes(10 * 1024 * 1024);
        assert_eq!(c.num_segments, 5); // 10 MiB / 2 MiB
    }

    #[test]
    fn config_roundtrips_through_serde() {
        let c = StoreConfig::paper_default();
        let json = serde_json::to_string(&c).unwrap();
        let back: StoreConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }

    /// `field` and `parent.field` for every leaf of a serialised value.
    fn flattened_fields(prefix: &str, value: &serde::Value, out: &mut Vec<String>) {
        match value {
            serde::Value::Object(fields) => {
                for (name, v) in fields {
                    let path = if prefix.is_empty() {
                        name.clone()
                    } else {
                        format!("{prefix}.{name}")
                    };
                    flattened_fields(&path, v, out);
                }
            }
            _ => out.push(prefix.to_string()),
        }
    }

    /// The README's "Tuning knobs" table is the operator's list of what `StoreConfig`
    /// sets: it names every settable value, and nothing that is not one.
    #[test]
    fn readme_knob_table_names_exactly_the_settable_values() {
        let readme = include_str!("../../../README.md");
        let table = readme
            .split("## Tuning knobs")
            .nth(1)
            .expect("README has a Tuning knobs section");
        let mut documented: Vec<String> = table
            .lines()
            .skip_while(|l| !l.starts_with('|'))
            .take_while(|l| l.starts_with('|'))
            .skip(2) // header and separator rows
            .filter_map(|row| row.split('|').nth(1))
            .flat_map(|cell| cell.split('/'))
            .map(|name| name.trim().trim_matches('`').to_string())
            .collect();
        documented.sort();

        let mut settable = Vec::new();
        flattened_fields(
            "",
            &serde::Serialize::serialize(&StoreConfig::paper_default()),
            &mut settable,
        );
        settable.sort();
        assert_eq!(documented, settable);
    }
}
