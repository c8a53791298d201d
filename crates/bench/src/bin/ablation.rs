//! Ablation benches for the paper's design choices, all on the simulator (the store
//! ships one setting of each):
//!
//! 1. segment `up2` tracking mode (`OnOverwrite`, paper §4.3, vs `CarryForwardOnly`,
//!    §5.2.2),
//! 2. the cost-benefit formula (classic LFS vs the paper's literal text, §6.1.3),
//! 3. user/GC stream separation (§5.3; also part of Figure 3),
//! 4. cleaning batch size (1 vs 64 segments per cycle),
//! 5. sort-buffer size (also part of Figure 4).
//!
//! All runs use the 80-20 Zipfian distribution at F = 0.8 except where noted.

use lss_bench::{print_results, run_point, sim_config, ExperimentPoint, Scale};
use lss_core::freq::Up2Mode;
use lss_core::policy::PolicyKind;
use lss_sim::{run_simulation, SeparationConfig, SimResult};
use lss_workload::ZipfianWorkload;

fn main() {
    let scale = Scale::from_args();
    let fill = 0.8;
    let mut results: Vec<SimResult> = Vec::new();

    // 1. up2 tracking mode.
    for (mode, label) in [
        (Up2Mode::OnOverwrite, "MDC up2=on-overwrite"),
        (Up2Mode::CarryForwardOnly, "MDC up2=carry-forward"),
    ] {
        let point = ExperimentPoint::new(PolicyKind::Mdc, fill);
        let mut config = sim_config(&point, scale);
        config.up2_mode = mode;
        let mut w = ZipfianWorkload::new(config.logical_pages(), 0.99, 42);
        let total = config.physical_pages() * scale.writes_multiplier();
        let mut r = run_simulation(&config, &mut w, total, total / 4);
        r.policy = label.to_string();
        results.push(r);
    }

    // 2. Cost-benefit formula (the literal variant cannot sustain F = 0.8; compare at 0.6).
    for (policy, label) in [
        (PolicyKind::CostBenefit, "cost-benefit classic (F=0.6)"),
        (
            PolicyKind::CostBenefitPaperLiteral,
            "cost-benefit literal (F=0.6)",
        ),
    ] {
        let point = ExperimentPoint::new(policy, 0.6);
        let mut r = run_point(&point, scale, |pages| {
            Box::new(ZipfianWorkload::new(pages, 0.99, 42))
        });
        r.policy = label.to_string();
        results.push(r);
    }

    // 3. Separation ablation (MDC variants of Figure 3, but on the Zipfian workload).
    for (sep, label) in [
        (SeparationConfig::full(), "MDC separation=user+GC"),
        (
            SeparationConfig::no_user_separation(),
            "MDC separation=GC-only",
        ),
        (SeparationConfig::none(), "MDC separation=none"),
    ] {
        let point = ExperimentPoint::new(PolicyKind::Mdc, fill).with_separation(sep, label);
        let r = run_point(&point, scale, |pages| {
            Box::new(ZipfianWorkload::new(pages, 0.99, 42))
        });
        results.push(r);
    }

    // 4. Cleaning batch size.
    for (batch, label) in [(1usize, "MDC batch=1"), (64, "MDC batch=64")] {
        let point = ExperimentPoint::new(PolicyKind::Mdc, fill);
        let mut config = sim_config(&point, scale);
        config.cleaning.segments_per_cycle = batch;
        let mut w = ZipfianWorkload::new(config.logical_pages(), 0.99, 42);
        let total = config.physical_pages() * scale.writes_multiplier();
        let mut r = run_simulation(&config, &mut w, total, total / 4);
        r.policy = label.to_string();
        results.push(r);
    }

    // 5. Sort-buffer size: 0 vs 16 (the full sweep is Figure 4).
    for buf in [0usize, 16] {
        let point = ExperimentPoint::new(PolicyKind::Mdc, fill).with_sort_buffer(buf);
        let mut r = run_point(&point, scale, |pages| {
            Box::new(ZipfianWorkload::new(pages, 0.99, 42))
        });
        r.policy = format!("MDC sort-buffer={buf}");
        results.push(r);
    }

    print_results("Ablations (80-20 Zipfian unless noted)", &results);
}
