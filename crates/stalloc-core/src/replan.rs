//! Incremental re-planning: patch an existing plan instead of running a
//! cold synthesis.
//!
//! ROAM's observation (PAPERS.md) is that the layout *search* dominates
//! planning cost; STAlloc's is that consecutive profiles of an elastic
//! or Chronos-style pipeline job differ in a handful of requests. Both
//! point at the same shortcut: when profile N+1 is a small edit of
//! profile N, keep the placements of every untouched static request and
//! re-pack only the disturbed ones into the gaps the survivors leave.
//!
//! [`patch_plan`] does exactly that. It recomputes the edit script with
//! [`diff_profiles`] (never trusting a wire-supplied script), seeds a
//! [`TimeSpacePacker`] with the surviving placements — a subset of a
//! validated plan, so conflict-free by construction — and best-fit
//! places the disturbed set size-descending, mirroring the `bestfit`
//! strategy's gap selection. The patched layout then flows through the
//! same [`finish_plan`] tail as every cold strategy, so dynamic
//! planning, stats, and validation behave identically: a patched plan
//! is a first-class [`Plan`], not a special case.

use crate::delta::{diff_profiles, EditOp};
use crate::geometry::TimeSpacePacker;
use crate::plan::strategy::{place_in_order, sort_largest_first};
use crate::plan::{finish_plan, Plan};
use crate::profiler::ProfiledRequests;

/// What a [`patch_plan`] run did, for observability and regression
/// bounds: how much of the base layout survived and how the footprint
/// moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplanStats {
    /// Static requests that kept their base-plan offset.
    pub reused: usize,
    /// Static requests that were re-packed (inserted, resized, or
    /// retimed).
    pub repacked: usize,
    /// Static requests dropped from the base profile.
    pub removed: usize,
    /// Base plan's static pool size in bytes.
    pub base_pool: u64,
    /// Patched plan's static pool size in bytes.
    pub patched_pool: u64,
    /// Patched minus base peak static demand, in bytes.
    pub peak_delta: i64,
}

impl ReplanStats {
    /// Fraction of the next profile's statics that reused their base
    /// placement (1.0 = identity patch).
    pub fn reuse_ratio(&self) -> f64 {
        let total = self.reused + self.repacked;
        if total == 0 {
            1.0
        } else {
            self.reused as f64 / total as f64
        }
    }
}

/// Why a base plan could not be patched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplanError {
    /// The base plan's allocation tables do not line up with the base
    /// profile (wrong plan for this profile, or a hand-edited artifact).
    PlanShapeMismatch {
        /// Static requests in the base profile.
        profile_statics: usize,
        /// Planned allocations in the base plan.
        plan_allocs: usize,
    },
}

impl std::fmt::Display for ReplanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplanError::PlanShapeMismatch {
                profile_statics,
                plan_allocs,
            } => write!(
                f,
                "base plan has {plan_allocs} static allocations but the base \
                 profile has {profile_statics} static requests"
            ),
        }
    }
}

impl std::error::Error for ReplanError {}

/// Patches `base_plan` (synthesized from `base_profile`) into a plan
/// for `next_profile`, reusing every placement the diff leaves
/// untouched.
///
/// The returned plan carries the base plan's strategy tag and passes
/// [`Plan::validate`] exactly like a cold synthesis would; its
/// `peak_static_demand` is demand-derived from `next_profile`, so the
/// replay oracle (`analyze_plan`) sees the same peak either way. Only
/// the layout *diagnostics* (phase groups, layers, gap insertion) are
/// zeroed — a patch does not re-run the grouping pipeline.
pub fn patch_plan(
    base_profile: &ProfiledRequests,
    base_plan: &Plan,
    next_profile: &ProfiledRequests,
) -> Result<(Plan, ReplanStats), ReplanError> {
    let plan_allocs = base_plan.init_allocs.len() + base_plan.iter_allocs.len();
    if plan_allocs != base_profile.statics.len() {
        return Err(ReplanError::PlanShapeMismatch {
            profile_statics: base_profile.statics.len(),
            plan_allocs,
        });
    }
    let base_offsets: Vec<u64> = base_plan
        .init_allocs
        .iter()
        .chain(&base_plan.iter_allocs)
        .map(|a| a.offset)
        .collect();

    // Recompute the script locally: the diff is cheap relative to
    // packing, and it makes the patch correct even if the caller's
    // delta came off the wire from an untrusted peer.
    let delta = diff_profiles(base_profile, next_profile);

    // Walk the edit script once: Copy runs carry their base offsets
    // across as survivors, everything else in `next` is disturbed.
    let next = &next_profile.statics;
    let mut offsets = vec![0u64; next.len()];
    let mut survivors = Vec::with_capacity(next.len());
    let mut disturbed = Vec::new();
    let mut stats = ReplanStats {
        base_pool: base_plan.pool_size,
        ..ReplanStats::default()
    };
    let mut base_i = 0usize;
    let mut next_i = 0usize;
    for op in &delta.statics {
        match op {
            EditOp::Copy { count } => {
                for _ in 0..*count {
                    offsets[next_i] = base_offsets[base_i];
                    survivors.push(next[next_i].rect_at(base_offsets[base_i]));
                    base_i += 1;
                    next_i += 1;
                }
            }
            EditOp::Insert { .. } => {
                disturbed.push(next_i);
                next_i += 1;
            }
            EditOp::Remove { count } => {
                base_i += count;
                stats.removed += count;
            }
            EditOp::Retime { .. } | EditOp::Resize { .. } => {
                disturbed.push(next_i);
                base_i += 1;
                next_i += 1;
            }
        }
    }
    debug_assert_eq!(base_i, base_profile.statics.len());
    debug_assert_eq!(next_i, next.len());
    stats.reused = survivors.len();
    stats.repacked = disturbed.len();

    // Best-fit the disturbed set, largest first, into a packer seeded
    // with the survivors. Those are a subset of a validated plan over
    // identical request fields, so no two can conflict. Thousands of
    // seeds for a handful of questions: `from_rects` builds the index
    // with one sort, not one ordered insert per survivor.
    sort_largest_first(next, &mut disturbed);
    let layout = place_in_order(
        next,
        &disturbed,
        TimeSpacePacker::from_rects(survivors),
        offsets,
        |packer, r, t1| {
            packer
                .find_best_fit(r.ts, t1, r.size, u64::MAX)
                .expect("top-of-stack candidate always exists")
        },
    );
    let plan = finish_plan(next_profile, base_plan.stats.strategy, layout);
    stats.patched_pool = plan.pool_size;
    stats.peak_delta =
        plan.stats.peak_static_demand as i64 - base_plan.stats.peak_static_demand as i64;
    Ok((plan, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{StrategyChoice, SynthConfig};
    use crate::profiler::{profile_trace, RequestEvent};
    use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};

    fn profile() -> ProfiledRequests {
        let trace = TrainJob::new(
            ModelSpec::gpt2_345m(),
            ParallelConfig::new(1, 2, 1),
            OptimConfig::naive(),
        )
        .with_mbs(1)
        .with_seq(256)
        .with_microbatches(2)
        .build_trace()
        .unwrap();
        profile_trace(&trace, 1).unwrap()
    }

    #[test]
    fn identity_patch_reuses_everything() {
        let base = profile();
        let plan = crate::synthesize(&base, &SynthConfig::default());
        let (patched, stats) = patch_plan(&base, &plan, &base).unwrap();
        patched.validate().unwrap();
        assert_eq!(stats.repacked, 0);
        assert_eq!(stats.reused, base.statics.len());
        assert_eq!(stats.reuse_ratio(), 1.0);
        assert_eq!(
            patched.stats.peak_static_demand,
            plan.stats.peak_static_demand
        );
        // Identity patch keeps every offset.
        assert_eq!(patched.init_allocs, plan.init_allocs);
        assert_eq!(patched.iter_allocs, plan.iter_allocs);
    }

    #[test]
    fn small_edit_patches_clean_and_mostly_reuses() {
        let base = profile();
        let plan = crate::synthesize(&base, &SynthConfig::default());
        let mut next = base.clone();
        // Resize one activation and append a fresh scratch request.
        let i = next.init_count + 3;
        next.statics[i].size += 4096;
        next.statics.push(RequestEvent {
            size: 1 << 20,
            ts: 10,
            te: 40,
            ps: 0,
            pe: 0,
            dynamic: false,
            ls: None,
            le: None,
        });
        let (patched, stats) = patch_plan(&base, &plan, &next).unwrap();
        patched.validate().unwrap();
        assert_eq!(patched.stats.strategy, plan.stats.strategy);
        assert_eq!(stats.repacked, 2);
        assert_eq!(stats.reused, base.statics.len() - 1);
        assert_eq!(
            patched.stats.peak_static_demand,
            next.peak_static_demand(),
            "peak is demand-derived, placement-independent"
        );
    }

    #[test]
    fn patch_works_across_strategies() {
        let base = profile();
        let mut next = base.clone();
        next.statics[next.init_count].size *= 2;
        for strategy in StrategyChoice::CONCRETE {
            let config = SynthConfig {
                strategy,
                ..SynthConfig::default()
            };
            let plan = crate::synthesize(&base, &config);
            let (patched, stats) = patch_plan(&base, &plan, &next).unwrap();
            patched.validate().unwrap();
            assert_eq!(patched.stats.strategy, strategy);
            assert!(stats.reused > 0, "{strategy:?} reused nothing");
        }
    }

    #[test]
    fn mismatched_plan_is_rejected() {
        let base = profile();
        let plan = crate::synthesize(&base, &SynthConfig::default());
        let mut truncated = base.clone();
        truncated.statics.pop();
        assert!(matches!(
            patch_plan(&truncated, &plan, &base),
            Err(ReplanError::PlanShapeMismatch { .. })
        ));
    }
}
