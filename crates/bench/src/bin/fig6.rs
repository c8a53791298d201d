//! Regenerates **Figure 6** of the paper: write amplification of all seven cleaning
//! algorithms when replaying TPC-C page-write I/O traces, across fill factors 0.5–0.8.
//!
//! The trace is produced by this workspace's own substrates: `lss-tpcc` runs a (scaled
//! down) TPC-C transaction mix against the `lss-btree` storage engine behind a buffer
//! pool; every page write that reaches storage is recorded and then replayed through the
//! simulator, exactly as the paper replays its traces (§6.3). The fill factor is varied
//! by sizing the simulated store relative to the number of distinct pages the database
//! occupies (the paper varies the TPC-C scale factor against a fixed 100 GB device —
//! same ratio, opposite knob).

use lss_bench::{print_results, Scale};
use lss_core::config::CleaningConfig;
use lss_core::policy::PolicyKind;
use lss_sim::{run_simulation, SimConfig, SimResult};
use lss_tpcc::{TpccConfig, TpccDriver};
use lss_workload::{PageWorkload, TraceWorkload};

fn main() {
    let scale = Scale::from_args();
    let (warehouses, transactions) = match scale {
        Scale::Quick => (1u32, 20_000u64),
        Scale::Default => (2, 80_000),
        Scale::Full => (4, 300_000),
    };

    eprintln!(
        "# loading TPC-C ({warehouses} warehouses) and running {transactions} transactions..."
    );
    let mut driver =
        TpccDriver::new(TpccConfig::scaled_experiment(warehouses)).expect("TPC-C load failed");
    driver.run(transactions).expect("TPC-C run failed");
    let tx = driver.stats();
    let (trace, distinct_pages) = driver.finish().expect("trace collection failed");
    eprintln!(
        "# trace: {} page writes over {} distinct pages ({} transactions: {:?})",
        trace.len(),
        distinct_pages,
        tx.total(),
        tx
    );

    // Replay the trace at each fill factor. The store geometry is scaled down together
    // with the database so the slack still spans a meaningful number of segments.
    let pages_per_segment = 64usize;
    let fills = [0.5, 0.6, 0.7, 0.8];
    let mut results: Vec<SimResult> = Vec::new();
    for &fill in &fills {
        let workload = TraceWorkload::with_empirical_frequencies("tpcc", &trace);
        let num_segments = ((workload.num_pages() as f64 / fill / pages_per_segment as f64).ceil()
            as usize)
            .max(64);
        for policy in PolicyKind::PAPER_FIGURE5 {
            let config = SimConfig {
                pages_per_segment,
                num_segments,
                fill_factor: fill,
                policy,
                separation: Default::default(),
                sort_buffer_segments: 16,
                cleaning: CleaningConfig {
                    trigger_free_segments: 16,
                    segments_per_cycle: 32,
                    reserved_free_segments: 4,
                    ..CleaningConfig::default()
                },
                up2_mode: Default::default(),
                use_exact_frequencies: None,
                gc_temperature_classes: 1,
                seed: 42,
            };
            let mut w = workload.clone();
            let total =
                (config.physical_pages() * scale.writes_multiplier()).max(trace.len() as u64);
            let r = run_simulation(&config, &mut w, total, total / 4);
            results.push(r);
        }
    }
    print_results(
        "Figure 6: write amplification on TPC-C B+-tree I/O traces",
        &results,
    );
}
