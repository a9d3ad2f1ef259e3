//! Solver-portfolio invariants across the model zoo.
//!
//! * every registered strategy yields a `validate()`-clean, non-
//!   overlapping plan whose claimed peak never exceeds the native
//!   (zero-fragmentation) allocator's replay peak;
//! * the portfolio never loses to its own baseline member, strictly
//!   improves on at least one zoo workload, and picks its winner
//!   deterministically across repeated runs.

use gpu_sim::DeviceSpec;
use harness::{run, AllocatorKind};
use proptest::prelude::*;
use stalloc_core::{profile_trace, registry, synthesize, Portfolio, StrategyChoice, SynthConfig};
use stalloc_store::encode_plan;
use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};

/// The four-model test zoo (dense small, dense + virtual pipeline +
/// recompute, dense large, MoE) used across the acceptance checks.
fn zoo() -> Vec<(&'static str, TrainJob)> {
    vec![
        (
            "gpt2-naive",
            TrainJob::new(
                ModelSpec::gpt2_345m(),
                ParallelConfig::new(1, 2, 1),
                OptimConfig::naive(),
            )
            .with_mbs(1)
            .with_seq(256)
            .with_microbatches(4)
            .with_iterations(2),
        ),
        (
            "gpt2-vpp-r",
            TrainJob::new(
                ModelSpec::gpt2_345m(),
                ParallelConfig::new(1, 4, 1).with_vpp(2),
                OptimConfig::r(),
            )
            .with_mbs(2)
            .with_seq(512)
            .with_microbatches(8)
            .with_iterations(2),
        ),
        (
            "llama2-r",
            TrainJob::new(
                ModelSpec::llama2_7b(),
                ParallelConfig::new(2, 2, 1),
                OptimConfig::r(),
            )
            .with_mbs(1)
            .with_seq(512)
            .with_microbatches(4)
            .with_iterations(2),
        ),
        (
            "qwen-moe",
            TrainJob::new(
                ModelSpec::qwen15_moe_a27b(),
                ParallelConfig::new(1, 1, 4).with_ep(4),
                OptimConfig::naive(),
            )
            .with_mbs(1)
            .with_seq(512)
            .with_microbatches(2)
            .with_iterations(2),
        ),
    ]
}

fn zoo_member(idx: u64) -> (ModelSpec, ParallelConfig, OptimConfig) {
    match idx % 4 {
        0 => (
            ModelSpec::gpt2_345m(),
            ParallelConfig::new(1, 2, 1),
            OptimConfig::naive(),
        ),
        1 => (
            ModelSpec::gpt2_345m(),
            ParallelConfig::new(1, 4, 1).with_vpp(2),
            OptimConfig::r(),
        ),
        2 => (
            ModelSpec::llama2_7b(),
            ParallelConfig::new(2, 2, 1),
            OptimConfig::r(),
        ),
        _ => (
            ModelSpec::qwen15_moe_a27b(),
            ParallelConfig::new(1, 1, 4).with_ep(4),
            OptimConfig::naive(),
        ),
    }
}

proptest! {
    /// Every registered strategy, on arbitrary zoo jobs: the plan passes
    /// the §5.1 non-overlap check and its pool covers the peak.
    #[test]
    fn every_strategy_plans_the_zoo_soundly(
        model_idx in 0u64..4,
        mbs in 1u32..3,
        mb_factor in 1u32..3,
        seed in 0u64..1000,
    ) {
        let (model, parallel, optim) = zoo_member(model_idx);
        let trace = TrainJob::new(model, parallel, optim)
            .with_mbs(mbs)
            .with_seq(256)
            .with_microbatches(parallel.pp * mb_factor)
            .with_iterations(1)
            .with_seed(seed)
            .build_trace()
            .map_err(|e| e.to_string())?;
        let profile = profile_trace(&trace, 1).map_err(|e| e.to_string())?;
        let config = SynthConfig::default();
        for s in registry() {
            let plan = s.plan_profiled(&profile, &config).0;
            prop_assert!(plan.validate().is_ok(), "{}: unsound", s.name());
            prop_assert!(
                plan.pool_size >= plan.stats.peak_static_demand,
                "{}: pool below peak", s.name()
            );
            prop_assert_eq!(plan.stats.strategy, s.choice);
        }
    }
}

/// Every strategy's claimed peak stays at or below the native
/// (zero-fragmentation) allocator's replay peak, and the pools stay
/// close to it: within 15% for any single strategy, within 2% for the
/// portfolio winner.
#[test]
fn strategy_pools_stay_near_native_peak() {
    let spec = DeviceSpec::test_device(512 << 30);
    for (label, job) in zoo() {
        let trace = job.build_trace().unwrap();
        let profile = profile_trace(&trace, 1).unwrap();
        let native_peak = run(&trace, &spec, AllocatorKind::Native)
            .report
            .peak_requested;
        let config = SynthConfig::default();
        for s in registry() {
            let plan = s.plan_profiled(&profile, &config).0;
            assert!(
                plan.stats.peak_static_demand <= native_peak,
                "{label}/{}: plan peak {} exceeds native peak {native_peak}",
                s.name(),
                plan.stats.peak_static_demand
            );
            assert!(
                plan.pool_size as f64 <= native_peak as f64 * 1.15,
                "{label}/{}: pool {} vs native peak {native_peak}",
                s.name(),
                plan.pool_size
            );
        }
        let winner = Portfolio::standard().run(&profile, &config).winner;
        assert!(
            winner.pool_size as f64 <= native_peak as f64 * 1.02,
            "{label}/portfolio: pool {} vs native peak {native_peak}",
            winner.pool_size
        );
    }
}

/// Ticks come off the wire unvalidated, so nothing in a planner may be
/// sized by a tick's *value*: a profile whose ticks reach past 2^40 plans
/// — in every strategy, without an allocation that scales with 2^40 —
/// to the plan of its twin with the ticks rank-compressed.
#[test]
fn huge_ticks_plan_like_their_rank_compressed_twin() {
    let (_, job) = zoo().swap_remove(1);
    let profile = profile_trace(&job.build_trace().unwrap(), 1).unwrap();
    assert!(profile.dynamics.is_empty(), "gpt2-vpp-r is all static");
    let retimed = |f: &dyn Fn(u64) -> u64| {
        let mut p = profile.clone();
        for r in &mut p.statics {
            (r.ts, r.te) = (f(r.ts), f(r.te));
        }
        p.window_len = f(p.window_len);
        p
    };
    let huge = retimed(&|t| (1 << 40) + (t << 20));
    let mut ticks: Vec<u64> = huge.statics.iter().flat_map(|r| [r.ts, r.te]).collect();
    ticks.sort_unstable();
    ticks.dedup();
    let compressed = retimed(&|t| {
        let t = (1 << 40) + (t << 20);
        ticks.partition_point(|&x| x < t) as u64
    });
    for strategy in StrategyChoice::CONCRETE {
        let config = SynthConfig {
            strategy,
            ..SynthConfig::default()
        };
        let plan = synthesize(&huge, &config);
        let twin = synthesize(&compressed, &config);
        plan.validate().unwrap();
        assert!(plan.iter_allocs.iter().all(|d| d.ts >= 1 << 40));
        assert_eq!(plan.pool_size, twin.pool_size, "{strategy}");
        let offsets = |p: &stalloc_core::Plan| -> Vec<u64> {
            let decisions = p.init_allocs.iter().chain(&p.iter_allocs);
            decisions.map(|d| d.offset).collect()
        };
        assert_eq!(offsets(&plan), offsets(&twin), "{strategy}");
    }
}

/// The acceptance bar: `--strategy portfolio` beats or matches baseline
/// packing efficiency on every zoo model and strictly improves on at
/// least one, with a deterministic winner across repeated runs.
#[test]
fn portfolio_beats_or_matches_baseline_across_zoo() {
    let mut strictly_better = 0usize;
    for (label, job) in zoo() {
        let trace = job.build_trace().unwrap();
        let profile = profile_trace(&trace, 1).unwrap();
        let baseline = synthesize(&profile, &SynthConfig::default());
        let portfolio_cfg = SynthConfig {
            strategy: StrategyChoice::Portfolio,
            ..SynthConfig::default()
        };
        let a = synthesize(&profile, &portfolio_cfg);
        let b = synthesize(&profile, &portfolio_cfg);
        assert_eq!(
            encode_plan(&a),
            encode_plan(&b),
            "{label}: portfolio winner is not deterministic"
        );
        // Same profile ⇒ same peak, so efficiency ordering is pool
        // ordering.
        assert_eq!(
            a.stats.peak_static_demand,
            baseline.stats.peak_static_demand
        );
        assert!(
            a.pool_size <= baseline.pool_size,
            "{label}: portfolio pool {} worse than baseline {}",
            a.pool_size,
            baseline.pool_size
        );
        assert!(
            a.stats.packing_efficiency() >= baseline.stats.packing_efficiency(),
            "{label}: portfolio efficiency regressed"
        );
        if a.pool_size < baseline.pool_size {
            strictly_better += 1;
        }
    }
    assert!(
        strictly_better >= 1,
        "the portfolio must strictly beat baseline on at least one zoo model"
    );
}
