//! STAlloc: GPU memory allocation with spatio-temporal planning.
//!
//! A Rust reproduction of the STAlloc system (EuroSys '26): an allocator
//! for deep-learning training that exploits the *spatial* (few distinct
//! sizes) and *temporal* (phase-scoped lifespans) regularity of training
//! memory requests to plan allocations ahead of time, eliminating the
//! fragmentation that online caching allocators accumulate.
//!
//! The crate mirrors the paper's three components:
//!
//! * [`profiler`] (§4) characterizes every request of one training
//!   iteration as `m = (s, tˢ, tᵉ, pˢ, pᵉ, dyn, lˢ, lᵉ)`;
//! * [`plan`] (§5) synthesizes a near-optimal static layout (HomoPhase
//!   groups, HomoSize memory-layers, gap insertion — or another row of
//!   the strategy table, or the race of all of them) plus Dynamic
//!   Reusable Space for MoE-style dynamic requests, and [`replan`]
//!   patches a plan for a small profile edit;
//! * [`runtime`] (§6) serves requests at the planned addresses with a
//!   best-fit dynamic allocator over `A_a ∩ A_i` and a caching-allocator
//!   fallback.
//!
//! # Examples
//!
//! ```
//! use stalloc_core::{profile_trace, synthesize, RuntimeConfig, StallocAllocator, SynthConfig};
//! use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};
//!
//! let job = TrainJob::new(
//!     ModelSpec::gpt2_345m(),
//!     ParallelConfig::new(1, 4, 1),
//!     OptimConfig::r(),
//! )
//! .with_mbs(1)
//! .with_seq(256)
//! .with_microbatches(4);
//! let trace = job.build_trace().unwrap();
//!
//! let profile = profile_trace(&trace, 1).unwrap();
//! let plan = synthesize(&profile, &SynthConfig::default());
//! plan.validate().unwrap();
//! let allocator = StallocAllocator::new(plan, RuntimeConfig::default());
//! assert_eq!(allocator.counters().static_fallback, 0);
//! ```

#![cfg_attr(not(test), warn(clippy::too_many_lines))]

mod conflict;
pub mod delta;
pub mod fingerprint;
pub mod geometry;
pub mod plan;
pub mod profiler;
pub mod replan;
pub mod runtime;
pub mod timeline;
pub mod visualize;
pub mod wire;

pub use delta::{apply_delta, diff_profiles, DeltaError, EditOp, ProfileDelta};
pub use fingerprint::{
    fingerprint_job, fingerprint_job_body, fingerprint_profile, fingerprint_profile_body,
    profile_body_capacity, write_profile_body, BodyDigest, Fingerprint, FINGERPRINT_VERSION,
    PROFILE_FLAG_DYNAMIC, PROFILE_FLAG_HAS_LE, PROFILE_FLAG_HAS_LS,
};
pub use geometry::{
    best_fit_gap, window_end, IntervalSet, LiveSweep, Rect, TimeAxis, TimeSpacePacker,
};
pub use plan::{
    baseline_layout, finish_plan, registry, strategy_for, synthesize, synthesize_reported,
    CandidateReport, DynGroup, DynamicPlan, Plan, PlanStats, PlannedAlloc, Portfolio,
    PortfolioOutcome, SolverProfile, StaticLayout, Strategy, StrategyChoice, SynthConfig,
    SYNTH_ALGO_VERSION,
};
pub use profiler::{profile_trace, InstanceKey, ProfileError, ProfiledRequests, RequestEvent};
pub use replan::{patch_plan, ReplanError, ReplanStats};
pub use runtime::{RuntimeConfig, RuntimeCounters, StallocAllocator};
pub use timeline::{analyze_plan, render_svg, PlanTimeline, StrandedTensor, TimelineSample};
pub use visualize::render_plan;
pub use wire::{
    NamedHistogram, PlanEncoding, PlanRequest, PlanResponse, PlanSource, ProfileEncoding,
    ServeMetrics, ServeStats, SolverStrategyMetrics, WireErrorKind,
};

#[cfg(test)]
mod tests {
    use super::*;
    use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};

    fn job() -> TrainJob {
        TrainJob::new(
            ModelSpec::gpt2_345m(),
            ParallelConfig::new(1, 4, 1),
            OptimConfig::naive(),
        )
        .with_mbs(1)
        .with_seq(256)
        .with_microbatches(8)
        .with_iterations(2)
    }

    #[test]
    fn profile_counts_are_consistent() {
        let trace = job().build_trace().unwrap();
        let p1 = profile_trace(&trace, 1).unwrap();
        let p2 = profile_trace(&trace, 2).unwrap();
        assert_eq!(p1.statics.len(), p2.statics.len());
        assert_eq!(p1.init_count, p2.init_count);
        assert!(p1.init_count > 0, "weights are persistent");
        assert!(p1.statics[p1.init_count..].len() > 100);
        // Static request sequences must be identical across iterations.
        let sizes = |p: &ProfiledRequests| -> Vec<u64> {
            p.statics[p.init_count..]
                .iter()
                .map(|r| r.size)
                .collect::<Vec<_>>()
        };
        assert_eq!(sizes(&p1), sizes(&p2));
    }

    #[test]
    fn plan_is_sound_and_tight() {
        let trace = job().build_trace().unwrap();
        let profile = profile_trace(&trace, 1).unwrap();
        let plan = synthesize(&profile, &SynthConfig::default());
        plan.validate().expect("no overlapping decisions");
        assert!(plan.pool_size >= plan.stats.peak_static_demand);
        // The plan should be close to the theoretical peak: <15% bubbles.
        assert!(
            plan.stats.packing_efficiency() > 0.85,
            "packing efficiency {:.3}",
            plan.stats.packing_efficiency()
        );
    }

    #[test]
    fn plan_serialization_roundtrip() {
        let trace = job().build_trace().unwrap();
        let profile = profile_trace(&trace, 1).unwrap();
        let plan = synthesize(&profile, &SynthConfig::default());
        let json = plan.to_json();
        let back = Plan::from_json(&json).unwrap();
        assert_eq!(back.pool_size, plan.pool_size);
        assert_eq!(back.iter_allocs, plan.iter_allocs);
        assert_eq!(back.stats, plan.stats);
    }

    #[test]
    fn ablations_do_not_break_soundness() {
        let trace = job().build_trace().unwrap();
        let profile = profile_trace(&trace, 1).unwrap();
        for config in [
            SynthConfig {
                enable_gap_insertion: false,
                ..SynthConfig::default()
            },
            SynthConfig {
                ascending_sizes: true,
                ..SynthConfig::default()
            },
        ] {
            let plan = synthesize(&profile, &config);
            plan.validate().expect("ablated plan still sound");
        }
    }

    #[test]
    fn missing_iteration_is_an_error() {
        let trace = job().build_trace().unwrap();
        assert_eq!(
            profile_trace(&trace, 9).unwrap_err(),
            ProfileError::MissingIteration(9)
        );
    }
}
