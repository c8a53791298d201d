//! # lss-bench — the benchmark harness that regenerates every table and figure
//!
//! One binary per experiment (docs/BENCHMARKS.md says how to read each one's output):
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `table1` | Table 1 — fill factor vs emptiness/cost/W_amp, analysis + MDC-opt simulation |
//! | `table2` | Table 2 — minimum cost managing hot and cold data separately + MDC-opt simulation |
//! | `fig3` | Figure 3 — breakdown analysis on hot-cold distributions |
//! | `fig4` | Figure 4 — sort-buffer size sweep |
//! | `fig5` | Figure 5 — uniform / Zipfian-0.99 / Zipfian-1.35 fill-factor sweeps |
//! | `fig6` | Figure 6 — TPC-C trace replay |
//! | `ablation` | the paper's design choices on the simulator: `up2` readings (§4.3 vs §5.2.2), cost-benefit formula (§6.1.3), stream separation (§5.3), cleaning batch and sort-buffer size |
//!
//! Every binary accepts `--quick` (smaller stores, fewer writes) and `--full` (closer to
//! paper scale); the default sits in between so the whole suite finishes in minutes on a
//! laptop. Results are printed as aligned text tables and also as JSON lines prefixed
//! with `#json ` so they can be scraped into plots.
//!
//! The `benches/` directory contains Criterion micro-benchmarks for the hot paths
//! (policy victim selection, simulator throughput, store put/get, workload sampling,
//! B+-tree operations).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use lss_core::policy::PolicyKind;
use lss_sim::{run_simulation, SeparationConfig, SimConfig, SimResult};
use lss_workload::PageWorkload;

/// How big an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small stores, few writes — smoke-test the harness in seconds.
    Quick,
    /// The default: large enough for stable write-amplification numbers, minutes overall.
    Default,
    /// Closer to the paper's scale (slower).
    Full,
}

impl Scale {
    /// Parse from command-line arguments (`--quick` / `--full`).
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--quick") {
            Scale::Quick
        } else if args.iter().any(|a| a == "--full") {
            Scale::Full
        } else {
            Scale::Default
        }
    }

    /// Number of physical segments for simulator experiments.
    ///
    /// The paper simulates a 100 GB store (51 200 segments), so its cleaning batch of 64
    /// touches 0.125 % of the store per cycle. These laptop-scale defaults keep that
    /// ratio small enough (≤ ~3 %) that the absolute write-amplification numbers stay
    /// close to the paper's; `--quick` trades some of that fidelity for speed.
    pub fn num_segments(self) -> usize {
        match self {
            Scale::Quick => 512,
            Scale::Default => 2048,
            Scale::Full => 8192,
        }
    }

    /// Pages per segment for simulator experiments (the paper uses 512 = 2 MiB / 4 KiB).
    pub fn pages_per_segment(self) -> usize {
        match self {
            Scale::Quick => 128,
            Scale::Default => 512,
            Scale::Full => 512,
        }
    }

    /// Measured user writes, as a multiple of the physical page count.
    pub fn writes_multiplier(self) -> u64 {
        match self {
            Scale::Quick => 8,
            Scale::Default => 12,
            Scale::Full => 40,
        }
    }
}

/// Configuration for one simulator experiment point.
#[derive(Debug, Clone)]
pub struct ExperimentPoint {
    /// Policy under test.
    pub policy: PolicyKind,
    /// Fill factor.
    pub fill_factor: f64,
    /// Separation configuration (MDC ablations).
    pub separation: SeparationConfig,
    /// Sort-buffer size in segments.
    pub sort_buffer_segments: usize,
    /// Label override (e.g. "MDC-no-sep-user"); defaults to the policy's paper name.
    pub label: Option<String>,
}

impl ExperimentPoint {
    /// A plain point for a policy at a fill factor.
    pub fn new(policy: PolicyKind, fill_factor: f64) -> Self {
        Self {
            policy,
            fill_factor,
            separation: SeparationConfig::default(),
            sort_buffer_segments: 16,
            label: None,
        }
    }

    /// Override the separation configuration.
    pub fn with_separation(mut self, sep: SeparationConfig, label: &str) -> Self {
        self.separation = sep;
        self.label = Some(label.to_string());
        self
    }

    /// Override the sort-buffer size.
    pub fn with_sort_buffer(mut self, segments: usize) -> Self {
        self.sort_buffer_segments = segments;
        self
    }

    /// The display label.
    pub fn label(&self) -> String {
        self.label
            .clone()
            .unwrap_or_else(|| self.policy.paper_name().to_string())
    }
}

/// Build the simulator configuration for a point at a given scale.
pub fn sim_config(point: &ExperimentPoint, scale: Scale) -> SimConfig {
    let mut num_segments = scale.num_segments();
    // Very high fill factors need more absolute slack segments for the cleaning batch and
    // open segments to fit; scale the store up so slack stays comfortably above the
    // trigger (the paper's 100 GB store has thousands of slack segments at F = 0.95).
    if (1.0 - point.fill_factor) * (num_segments as f64) < 96.0 {
        num_segments = (96.0 / (1.0 - point.fill_factor)).ceil() as usize;
    }
    SimConfig {
        pages_per_segment: scale.pages_per_segment(),
        num_segments,
        fill_factor: point.fill_factor,
        policy: point.policy,
        separation: point.separation,
        sort_buffer_segments: point.sort_buffer_segments,
        cleaning: Default::default(),
        up2_mode: Default::default(),
        use_exact_frequencies: None,
        gc_temperature_classes: 1,
        seed: 42,
    }
}

/// Seed for stress/bench workloads: `LSS_STRESS_SEED` if set, else `default`.
pub fn stress_seed_or(default: u64) -> u64 {
    std::env::var("LSS_STRESS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// A GC tuning recommendation: the knobs the `autotune` binary sweeps and the
/// skewed cleaner-bench phase can replay. Serialised inside `BENCH_autotune.json`
/// under `"recommended"`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GcTuning {
    /// Cleaning policy.
    pub policy: PolicyKind,
    /// GC output temperature classes (see `StoreConfig::gc_temperature_classes`).
    pub gc_temperature_classes: usize,
    /// Cold-victim ripening bar (see `CleaningConfig::cold_victim_min_emptiness`).
    pub cold_victim_min_emptiness: f64,
}

impl GcTuning {
    /// The untuned baseline: the store's defaults with temperature classes off.
    pub fn baseline(policy: PolicyKind) -> Self {
        Self {
            policy,
            gc_temperature_classes: 1,
            cold_victim_min_emptiness: 0.0,
        }
    }

    /// A short display label such as `mdc-c2-t0.50`.
    pub fn label(&self) -> String {
        format!(
            "{}-c{}-t{:.2}",
            self.policy.paper_name().to_lowercase(),
            self.gc_temperature_classes,
            self.cold_victim_min_emptiness
        )
    }
}

/// The subset of `BENCH_autotune.json` other binaries care about.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct AutotuneRecommendation {
    /// The winning configuration across all workload families.
    pub recommended: GcTuning,
}

/// Load an autotune recommendation if the user pointed at one, either with
/// `--autotune-config <path>` or the `LSS_AUTOTUNE_CONFIG` env var. Returns `None`
/// when neither is set; panics (with the parse error) when a path is given but
/// unreadable, so a mis-wired CI step fails loudly instead of silently benching the
/// defaults.
pub fn load_autotune_recommendation() -> Option<GcTuning> {
    let args: Vec<String> = std::env::args().collect();
    let path = args
        .iter()
        .position(|a| a == "--autotune-config")
        .and_then(|i| args.get(i + 1).cloned())
        .or_else(|| std::env::var("LSS_AUTOTUNE_CONFIG").ok())?;
    let data = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read autotune config {path}: {e}"));
    let rec: AutotuneRecommendation = serde_json::from_str(&data)
        .unwrap_or_else(|e| panic!("cannot parse autotune config {path}: {e}"));
    Some(rec.recommended)
}

/// Run one experiment point with a freshly built workload.
///
/// `make_workload` receives the number of logical pages and must return the workload to
/// drive the run with.
pub fn run_point<F>(point: &ExperimentPoint, scale: Scale, make_workload: F) -> SimResult
where
    F: FnOnce(u64) -> Box<dyn PageWorkload>,
{
    let config = sim_config(point, scale);
    let mut workload = make_workload(config.logical_pages());
    let total = config.physical_pages() * scale.writes_multiplier();
    let warmup = total / 4;
    let mut result = run_simulation(&config, workload.as_mut(), total, warmup);
    result.policy = point.label();
    result
}

/// Print a row-aligned results table followed by machine-readable JSON lines.
pub fn print_results(title: &str, results: &[SimResult]) {
    println!("\n== {title} ==");
    println!(
        "{:<24} {:<16} {:>6} {:>10} {:>10}",
        "algorithm", "workload", "F", "Wamp", "E_clean"
    );
    for r in results {
        println!(
            "{:<24} {:<16} {:>6.2} {:>10.3} {:>10.3}",
            r.policy, r.workload, r.fill_factor, r.write_amplification, r.mean_emptiness_at_clean
        );
    }
    for r in results {
        println!("#json {}", serde_json::to_string(r).unwrap());
    }
}

/// Convenience used by several figures: run one policy over a fill-factor sweep.
pub fn sweep_fill_factors<F>(
    policy: PolicyKind,
    fills: &[f64],
    scale: Scale,
    mut make_workload: F,
) -> Vec<SimResult>
where
    F: FnMut(u64) -> Box<dyn PageWorkload>,
{
    fills
        .iter()
        .map(|&f| run_point(&ExperimentPoint::new(policy, f), scale, &mut make_workload))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lss_workload::UniformWorkload;

    #[test]
    fn scale_parameters_are_ordered() {
        assert!(Scale::Quick.num_segments() < Scale::Full.num_segments());
        assert!(Scale::Quick.writes_multiplier() < Scale::Full.writes_multiplier());
    }

    #[test]
    fn high_fill_factors_get_extra_segments() {
        let p = ExperimentPoint::new(PolicyKind::Greedy, 0.95);
        let c = sim_config(&p, Scale::Quick);
        assert!((1.0 - 0.95) * c.num_segments as f64 >= 95.0);
        let p = ExperimentPoint::new(PolicyKind::Greedy, 0.5);
        let c = sim_config(&p, Scale::Quick);
        assert_eq!(c.num_segments, Scale::Quick.num_segments());
    }

    #[test]
    fn run_point_produces_a_labelled_result() {
        let point = ExperimentPoint::new(PolicyKind::Greedy, 0.6)
            .with_separation(SeparationConfig::none(), "greedy-nosort")
            .with_sort_buffer(4);
        // Shrink the run drastically so this stays a unit test.
        let mut cfg = sim_config(&point, Scale::Quick);
        cfg.num_segments = 64;
        cfg.pages_per_segment = 64;
        let mut w = UniformWorkload::new(cfg.logical_pages(), 1);
        let total = cfg.physical_pages() * 4;
        let mut r = run_simulation(&cfg, &mut w, total, total / 4);
        r.policy = point.label();
        assert_eq!(r.policy, "greedy-nosort");
        assert!(r.write_amplification.is_finite());
    }
}
