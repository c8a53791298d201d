//! Regenerates **Figure 3** of the paper: the breakdown analysis on hot-cold
//! distributions (50-50 … 90-10) at fill factor 0.8, comparing
//! greedy, MDC-no-sep-user-GC, MDC-no-sep-user, MDC, MDC-opt, and the analytical optimum.

use lss_analysis::hotcold::{HotColdAnalysis, HotColdSpec};
use lss_bench::{print_results, run_point, ExperimentPoint, Scale};
use lss_core::policy::PolicyKind;
use lss_sim::{SeparationConfig, SimResult};
use lss_workload::HotColdWorkload;

fn main() {
    let scale = Scale::from_args();
    let fill = 0.8;
    let skews: [u32; 5] = [50, 60, 70, 80, 90];

    let mut all: Vec<SimResult> = Vec::new();
    for &m in &skews {
        let variants: Vec<ExperimentPoint> = vec![
            ExperimentPoint::new(PolicyKind::Greedy, fill),
            ExperimentPoint::new(PolicyKind::Mdc, fill)
                .with_separation(SeparationConfig::none(), "MDC-no-sep-user-GC"),
            ExperimentPoint::new(PolicyKind::Mdc, fill)
                .with_separation(SeparationConfig::no_user_separation(), "MDC-no-sep-user"),
            ExperimentPoint::new(PolicyKind::Mdc, fill),
            ExperimentPoint::new(PolicyKind::MdcOpt, fill),
        ];
        for point in variants {
            let mut r = run_point(&point, scale, |pages| {
                Box::new(HotColdWorkload::from_skew_percent(pages, m, 42))
            });
            r.workload = format!("hotcold-{m}:{}", 100 - m);
            all.push(r);
        }
        // The analytical optimum ("opt" in the figure).
        let analysis = HotColdAnalysis::minimum_cost(fill, HotColdSpec::from_skew_percent(m));
        let mut opt = SimResult {
            policy: "opt".to_string(),
            workload: format!("hotcold-{m}:{}", 100 - m),
            fill_factor: fill,
            measured_writes: 0,
            write_amplification: analysis.min_write_amplification,
            mean_emptiness_at_clean: 2.0 / analysis.min_cost,
            pages_per_segment: 0,
            num_segments: 0,
            stats: Default::default(),
        };
        opt.mean_emptiness_at_clean = 2.0 / analysis.min_cost;
        all.push(opt);
    }
    print_results(
        "Figure 3: breakdown analysis on hot-cold distributions (F = 0.8)",
        &all,
    );
}
