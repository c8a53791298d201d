//! Cleaning policies: how the store decides *which* segments to clean and *how* outgoing
//! pages are grouped into new segments.
//!
//! The paper evaluates seven algorithms (§6.1.3), all implemented here behind the common
//! [`CleaningPolicy`] trait so that the real store ([`crate::LogStore`]) and the
//! evaluation simulator (`lss-sim`) exercise exactly the same code:
//!
//! | Name in paper | Type | Victim selection | Page grouping |
//! |---|---|---|---|
//! | `age` | [`AgePolicy`] | oldest sealed segment first | none |
//! | `greedy` | [`GreedyPolicy`] | most free space first | none |
//! | `cost-benefit` | [`CostBenefitPolicy`] | max benefit/cost (LFS \[23\]) | none |
//! | `multi-log` | [`MultiLogPolicy`] | local-optimal among the written log and its two neighbours | pages bucketed into logs by estimated update period |
//! | `multi-log-opt` | [`MultiLogPolicy::oracle`] | same | buckets use the exact page update frequency |
//! | `MDC` | [`MdcPolicy`] | minimum declining cost (paper §4/§5) | sort batch by carried `up2` |
//! | `MDC-opt` | [`MdcPolicy::oracle`] | same, with exact frequencies | sort batch by exact frequency |

mod age;
mod cost_benefit;
mod greedy;
mod mdc;
mod multilog;

pub use age::AgePolicy;
pub use cost_benefit::{CostBenefitFormula, CostBenefitPolicy};
pub use greedy::GreedyPolicy;
pub use mdc::MdcPolicy;
pub use multilog::MultiLogPolicy;
pub use multilog::MAX_LOGS as MULTILOG_MAX_LOGS;

use crate::types::{PageWriteInfo, SealSeq, SegmentId, UpdateTick};
use serde::{Deserialize, Serialize};

/// Snapshot of one sealed, in-use segment as seen by a cleaning policy.
///
/// These are the quantities the paper identifies in §5.1: the segment byte size `B`
/// ([`capacity_bytes`](SegmentStats::capacity_bytes)), available (dead) space `A`
/// ([`free_bytes`](SegmentStats::free_bytes)), live page count `C`
/// ([`live_pages`](SegmentStats::live_pages)) and the penultimate-update estimate `up2`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentStats {
    /// Which segment this is.
    pub id: SegmentId,
    /// `B`: total payload capacity of the segment in bytes.
    pub capacity_bytes: u64,
    /// `A`: bytes no longer occupied by live pages (reclaimable space).
    pub free_bytes: u64,
    /// `C`: number of live pages still in the segment.
    pub live_pages: u64,
    /// `up2`: penultimate-update estimate on the update-count clock.
    pub up2: UpdateTick,
    /// Update tick at which the segment was sealed (used by age/cost-benefit).
    pub sealed_at: UpdateTick,
    /// Monotone seal sequence (strictly increasing with time; used for FIFO orders and
    /// deterministic tie-breaking).
    pub seal_seq: SealSeq,
    /// The output log/stream the segment was written by (0 unless the policy maintains
    /// multiple logs).
    pub log_id: u16,
    /// Temperature class the segment was filled with (0 = coldest), or
    /// [`crate::freq::TEMPERATURE_UNCLASSIFIED`] for user-filled / recovered segments.
    /// Only meaningful when `gc_temperature_classes > 1`; the store uses it to let cold
    /// segments accumulate more dead space before becoming policy victims.
    pub temperature: u16,
    /// Exact segment update frequency — the sum of the exact per-page update frequencies
    /// of the live pages — when the embedding system knows it (the simulator's "-opt"
    /// oracle variants). `None` in the real store.
    pub exact_upf: Option<f64>,
}

impl SegmentStats {
    /// Fraction of the segment that is empty (the paper's `E = A / B`).
    #[inline]
    pub fn emptiness(&self) -> f64 {
        if self.capacity_bytes == 0 {
            0.0
        } else {
            self.free_bytes as f64 / self.capacity_bytes as f64
        }
    }

    /// Utilisation `1 − E`.
    #[inline]
    pub fn utilization(&self) -> f64 {
        1.0 - self.emptiness()
    }

    /// Age of the segment in update ticks.
    #[inline]
    pub fn age(&self, unow: UpdateTick) -> u64 {
        unow.saturating_sub(self.sealed_at)
    }
}

/// Everything a policy may look at when selecting victims or placing pages.
#[derive(Debug)]
pub struct PolicyContext<'a> {
    /// Current value of the update-count clock.
    pub unow: UpdateTick,
    /// All sealed, in-use segments that are candidates for cleaning.
    pub segments: &'a [SegmentStats],
}

/// A cleaning policy: selects victim segments and (optionally) controls how outgoing
/// pages are grouped into new segments.
///
/// Implementations must be deterministic given the same inputs so simulation results are
/// reproducible.
pub trait CleaningPolicy: Send {
    /// Short, stable policy name (used in reports and experiment output).
    fn name(&self) -> &'static str;

    /// Select up to `want` victim segments to clean, best victims first.
    ///
    /// Implementations should skip segments from which nothing can be reclaimed
    /// (`free_bytes == 0`) unless the policy's definition requires strict ordering
    /// regardless (the age policy does, mirroring a circular log).
    fn select_victims(&mut self, ctx: &PolicyContext<'_>, want: usize) -> Vec<SegmentId>;

    /// Number of output logs (write streams) the policy wants the writer to maintain.
    /// Each log has its own open segment; pages are routed with [`Self::log_for_page`].
    fn num_logs(&self) -> usize {
        1
    }

    /// Route a page about to be written to one of the `num_logs()` output logs.
    fn log_for_page(&mut self, _page: &PageWriteInfo, _ctx: &PolicyContext<'_>) -> u16 {
        0
    }

    /// Key by which a write batch should be sorted so that pages with similar update
    /// frequency end up in the same segment (paper §5.3). `None` disables sorting for
    /// this policy (age, greedy, cost-benefit do not separate).
    fn separation_key(&self, _page: &PageWriteInfo) -> Option<f64> {
        None
    }

    /// Preferred number of segments to clean per cleaning cycle, if the policy wants to
    /// override the store configuration (multi-log cleans one at a time, per §6.1.3).
    fn preferred_batch(&self) -> Option<usize> {
        None
    }
}

/// The set of built-in policies, as named in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Always clean the oldest segment (circular log).
    Age,
    /// Always clean the segment with the most free space.
    Greedy,
    /// The LFS cost-benefit heuristic \[23\].
    CostBenefit,
    /// Cost-benefit using the formula as literally printed in the paper (§6.1.3), which
    /// prefers full segments; [`PolicyKind::CostBenefit`] reads it as a typo (see
    /// [`CostBenefitFormula`]).
    CostBenefitPaperLiteral,
    /// Multi-log cleaning \[26\] with estimated update frequencies.
    MultiLog,
    /// Multi-log cleaning with exact (oracle) update frequencies.
    MultiLogOpt,
    /// Minimum Declining Cost (the paper's contribution) with estimated frequencies.
    Mdc,
    /// MDC with exact (oracle) update frequencies.
    MdcOpt,
}

impl PolicyKind {
    /// All kinds, in the order the paper's figures list them.
    pub const ALL: [PolicyKind; 8] = [
        PolicyKind::Age,
        PolicyKind::Greedy,
        PolicyKind::CostBenefit,
        PolicyKind::CostBenefitPaperLiteral,
        PolicyKind::MultiLog,
        PolicyKind::MultiLogOpt,
        PolicyKind::Mdc,
        PolicyKind::MdcOpt,
    ];

    /// The seven algorithms compared in Figures 5 and 6 of the paper.
    pub const PAPER_FIGURE5: [PolicyKind; 7] = [
        PolicyKind::Age,
        PolicyKind::Greedy,
        PolicyKind::CostBenefit,
        PolicyKind::MultiLog,
        PolicyKind::MultiLogOpt,
        PolicyKind::Mdc,
        PolicyKind::MdcOpt,
    ];

    /// Instantiate the policy.
    pub fn build(self) -> Box<dyn CleaningPolicy> {
        match self {
            PolicyKind::Age => Box::new(AgePolicy::new()),
            PolicyKind::Greedy => Box::new(GreedyPolicy::new()),
            PolicyKind::CostBenefit => {
                Box::new(CostBenefitPolicy::new(CostBenefitFormula::ClassicLfs))
            }
            PolicyKind::CostBenefitPaperLiteral => {
                Box::new(CostBenefitPolicy::new(CostBenefitFormula::PaperLiteral))
            }
            PolicyKind::MultiLog => Box::new(MultiLogPolicy::estimated()),
            PolicyKind::MultiLogOpt => Box::new(MultiLogPolicy::oracle()),
            PolicyKind::Mdc => Box::new(MdcPolicy::estimated()),
            PolicyKind::MdcOpt => Box::new(MdcPolicy::oracle()),
        }
    }

    /// The display name used in the paper's figures.
    pub fn paper_name(self) -> &'static str {
        match self {
            PolicyKind::Age => "age",
            PolicyKind::Greedy => "greedy",
            PolicyKind::CostBenefit => "cost-benefit",
            PolicyKind::CostBenefitPaperLiteral => "cost-benefit-literal",
            PolicyKind::MultiLog => "multi-log",
            PolicyKind::MultiLogOpt => "multi-log-opt",
            PolicyKind::Mdc => "MDC",
            PolicyKind::MdcOpt => "MDC-opt",
        }
    }

    /// True for the oracle ("-opt") variants that require the embedding system to supply
    /// exact page update frequencies.
    pub fn needs_exact_frequencies(self) -> bool {
        matches!(self, PolicyKind::MultiLogOpt | PolicyKind::MdcOpt)
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.paper_name())
    }
}

impl std::str::FromStr for PolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "age" => Ok(PolicyKind::Age),
            "greedy" => Ok(PolicyKind::Greedy),
            "cost-benefit" | "costbenefit" | "cb" => Ok(PolicyKind::CostBenefit),
            "cost-benefit-literal" => Ok(PolicyKind::CostBenefitPaperLiteral),
            "multi-log" | "multilog" => Ok(PolicyKind::MultiLog),
            "multi-log-opt" | "multilogopt" => Ok(PolicyKind::MultiLogOpt),
            "mdc" => Ok(PolicyKind::Mdc),
            "mdc-opt" | "mdcopt" => Ok(PolicyKind::MdcOpt),
            other => Err(format!("unknown policy '{other}'")),
        }
    }
}

/// Select the ids of up to `want` segments with the smallest `key`, ascending, with
/// deterministic tie-breaking on the segment's seal sequence.
///
/// Shared helper used by several policies. Runs in O(n log n) on the candidate list,
/// which is negligible next to the cost of actually cleaning 64 segments.
pub(crate) fn select_k_smallest_by<F>(
    segments: &[SegmentStats],
    want: usize,
    mut key: F,
) -> Vec<SegmentId>
where
    F: FnMut(&SegmentStats) -> f64,
{
    let mut scored: Vec<(f64, SealSeq, SegmentId)> = segments
        .iter()
        .map(|s| (key(s), s.seal_seq, s.id))
        .collect();
    scored.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    });
    scored.into_iter().take(want).map(|(_, _, id)| id).collect()
}

#[cfg(test)]
pub(crate) fn test_segment(
    id: u32,
    capacity: u64,
    free: u64,
    live: u64,
    up2: UpdateTick,
    sealed_at: UpdateTick,
) -> SegmentStats {
    SegmentStats {
        id: SegmentId(id),
        capacity_bytes: capacity,
        free_bytes: free,
        live_pages: live,
        up2,
        sealed_at,
        seal_seq: id as u64,
        log_id: 0,
        temperature: crate::freq::TEMPERATURE_UNCLASSIFIED,
        exact_upf: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emptiness_and_utilization() {
        let s = test_segment(1, 1000, 250, 75, 0, 0);
        assert!((s.emptiness() - 0.25).abs() < 1e-12);
        assert!((s.utilization() - 0.75).abs() < 1e-12);
        assert_eq!(s.age(100), 100);
    }

    #[test]
    fn zero_capacity_segment_has_zero_emptiness() {
        let s = test_segment(1, 0, 0, 0, 0, 0);
        assert_eq!(s.emptiness(), 0.0);
    }

    #[test]
    fn policy_kind_roundtrip_names() {
        for kind in PolicyKind::ALL {
            let p = kind.build();
            assert!(!p.name().is_empty());
            // paper_name parses back to the same kind (the literal variant maps to itself).
            let parsed: PolicyKind = kind.paper_name().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("nonsense".parse::<PolicyKind>().is_err());
    }

    #[test]
    fn oracle_variants_are_flagged() {
        assert!(PolicyKind::MdcOpt.needs_exact_frequencies());
        assert!(PolicyKind::MultiLogOpt.needs_exact_frequencies());
        assert!(!PolicyKind::Mdc.needs_exact_frequencies());
        assert!(!PolicyKind::Greedy.needs_exact_frequencies());
    }

    #[test]
    fn select_k_smallest_orders_and_truncates() {
        let segs = vec![
            test_segment(0, 100, 10, 9, 0, 0),
            test_segment(1, 100, 90, 1, 0, 0),
            test_segment(2, 100, 50, 5, 0, 0),
        ];
        let picked = select_k_smallest_by(&segs, 2, |s| s.free_bytes as f64);
        assert_eq!(picked, vec![SegmentId(0), SegmentId(2)]);
        let all = select_k_smallest_by(&segs, 10, |s| s.free_bytes as f64);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn select_k_breaks_ties_by_seal_seq() {
        let segs = vec![
            test_segment(5, 100, 50, 5, 0, 0),
            test_segment(2, 100, 50, 5, 0, 0),
            test_segment(9, 100, 50, 5, 0, 0),
        ];
        // seal_seq == id in the test helper, so ties resolve to ascending id.
        let picked = select_k_smallest_by(&segs, 3, |s| s.free_bytes as f64);
        assert_eq!(picked, vec![SegmentId(2), SegmentId(5), SegmentId(9)]);
    }

    #[test]
    fn figure5_list_excludes_ablation_variants() {
        assert_eq!(PolicyKind::PAPER_FIGURE5.len(), 7);
        assert!(!PolicyKind::PAPER_FIGURE5.contains(&PolicyKind::CostBenefitPaperLiteral));
    }
}
