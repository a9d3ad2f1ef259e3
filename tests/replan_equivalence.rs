//! Patched plans are *plans*: `patch_plan` must produce output that is
//! indistinguishable from a cold synthesis by every external oracle.
//!
//! For each model in the zoo × each concrete packing strategy:
//!
//! * the patched plan passes `Plan::validate()` untouched;
//! * replaying the patched plan through `analyze_plan` reproduces the
//!   peak recorded in its own `PlanStats` (the stats are honest);
//! * the patched peak demand equals the cold-synthesis peak exactly —
//!   peak demand is a property of the profile, not of how the plan was
//!   reached;
//! * the patched pool stays within the stated 2× bound of the cold
//!   pool (re-packing only the disturbed region can cost fragmentation,
//!   never unbounded fragmentation);
//! * `ReplanStats` accounts for every request: reused + repacked covers
//!   the whole next population.
//!
//! Deterministic (no proptest): cold synthesis per (model, strategy)
//! pair is the expensive step, so the zoo stays small and seeded.

use stalloc_core::{
    analyze_plan, patch_plan, profile_trace, synthesize, ProfiledRequests, RequestEvent,
    StrategyChoice, SynthConfig,
};
use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};

fn model_zoo(idx: u64) -> (&'static str, ModelSpec, ParallelConfig, OptimConfig) {
    match idx % 4 {
        0 => (
            "gpt2-pp2",
            ModelSpec::gpt2_345m(),
            ParallelConfig::new(1, 2, 1),
            OptimConfig::naive(),
        ),
        1 => (
            "gpt2-pp4-vpp2",
            ModelSpec::gpt2_345m(),
            ParallelConfig::new(1, 4, 1).with_vpp(2),
            OptimConfig::r(),
        ),
        2 => (
            "llama2-tp2-pp2",
            ModelSpec::llama2_7b(),
            ParallelConfig::new(2, 2, 1),
            OptimConfig::r(),
        ),
        _ => (
            "qwen-moe-dp4-ep4",
            ModelSpec::qwen15_moe_a27b(),
            ParallelConfig::new(1, 1, 4).with_ep(4),
            OptimConfig::naive(),
        ),
    }
}

fn zoo_profile(idx: u64) -> (&'static str, ProfiledRequests) {
    let (name, model, parallel, optim) = model_zoo(idx);
    let trace = TrainJob::new(model, parallel, optim)
        .with_mbs(1)
        .with_seq(256)
        .with_microbatches(parallel.pp)
        .with_iterations(1)
        .build_trace()
        .unwrap();
    (name, profile_trace(&trace, 1).unwrap())
}

/// The Chronos-style neighbour used throughout the delta tests: a few
/// post-init requests grow, one fresh scratch tensor appears.
fn neighbour(base: &ProfiledRequests) -> ProfiledRequests {
    let mut next = base.clone();
    for r in next.statics.iter_mut().skip(base.init_count).take(3) {
        r.size += 4096;
    }
    next.statics.push(RequestEvent {
        size: 1 << 20,
        ts: 5,
        te: 30,
        ps: 0,
        pe: 0,
        dynamic: false,
        ls: None,
        le: None,
    });
    next
}

#[test]
fn patched_plans_are_equivalent_to_cold_synthesis_across_zoo_and_strategies() {
    for idx in 0..4 {
        let (name, base) = zoo_profile(idx);
        let next = neighbour(&base);
        for &strategy in &StrategyChoice::CONCRETE {
            let config = SynthConfig {
                strategy,
                ..SynthConfig::default()
            };
            let base_plan = synthesize(&base, &config);
            base_plan.validate().unwrap();

            let (patched, stats) = patch_plan(&base, &base_plan, &next)
                .unwrap_or_else(|e| panic!("{name}/{strategy:?}: patch_plan failed: {e}"));

            // Oracle 1: the patched plan is sound on its own terms.
            patched
                .validate()
                .unwrap_or_else(|e| panic!("{name}/{strategy:?}: patched plan unsound: {e}"));

            // Oracle 2: replaying the plan reproduces its recorded peak.
            let timeline = analyze_plan(&patched, 3);
            assert_eq!(
                timeline.peak_live_bytes, patched.stats.peak_static_demand,
                "{name}/{strategy:?}: replayed peak disagrees with PlanStats"
            );

            // Oracle 3: peak demand is profile-determined, so the
            // patched plan and a cold synthesis of `next` agree exactly.
            let cold = synthesize(&next, &config);
            assert_eq!(
                patched.stats.peak_static_demand, cold.stats.peak_static_demand,
                "{name}/{strategy:?}: patched peak != cold peak"
            );
            assert_eq!(patched.stats.peak_static_demand, next.peak_static_demand());

            // Oracle 4: the stated fragmentation bound — patching the
            // disturbed region only may pad the pool, but never past 2×
            // what planning from scratch needs.
            assert!(
                patched.pool_size <= 2 * cold.pool_size,
                "{name}/{strategy:?}: patched pool {} exceeds 2x cold pool {}",
                patched.pool_size,
                cold.pool_size
            );
            assert_eq!(patched.pool_size, stats.patched_pool);
            assert_eq!(base_plan.pool_size, stats.base_pool);

            // Oracle 5: ReplanStats covers the whole population, and
            // this neighbour genuinely reuses most of it.
            assert_eq!(
                stats.reused + stats.repacked,
                next.statics.len(),
                "{name}/{strategy:?}: ReplanStats dropped requests"
            );
            assert!(
                stats.reused > 0 && stats.reuse_ratio() > 0.5,
                "{name}/{strategy:?}: expected majority reuse, got {:.2} ({} reused / {} repacked)",
                stats.reuse_ratio(),
                stats.reused,
                stats.repacked
            );
        }
    }
}

/// The degenerate patch — next == base — reuses everything and returns
/// a plan equal in layout to the base.
#[test]
fn identity_patch_reuses_everything() {
    let (_, base) = zoo_profile(0);
    let config = SynthConfig::default();
    let base_plan = synthesize(&base, &config);
    let (patched, stats) = patch_plan(&base, &base_plan, &base).unwrap();
    patched.validate().unwrap();
    assert_eq!(stats.repacked, 0);
    assert_eq!(stats.removed, 0);
    assert_eq!(stats.reused, base.statics.len());
    assert_eq!(stats.peak_delta, 0);
    assert_eq!(
        patched.stats.peak_static_demand,
        base_plan.stats.peak_static_demand
    );
    assert_eq!(patched.pool_size, base_plan.pool_size);
}

/// A shrinking neighbour (requests removed) must also patch clean —
/// `removed` is accounted and the peak can only go down.
#[test]
fn shrinking_patch_is_sound_and_accounted() {
    let (_, base) = zoo_profile(1);
    let mut next = base.clone();
    let dropped = 2.min(next.statics.len() - next.init_count);
    for _ in 0..dropped {
        next.statics.pop();
    }
    let config = SynthConfig::default();
    let base_plan = synthesize(&base, &config);
    let (patched, stats) = patch_plan(&base, &base_plan, &next).unwrap();
    patched.validate().unwrap();
    assert_eq!(stats.removed, dropped);
    assert_eq!(stats.reused + stats.repacked, next.statics.len());
    assert!(patched.stats.peak_static_demand <= base_plan.stats.peak_static_demand);
    assert_eq!(patched.stats.peak_static_demand, next.peak_static_demand());
}
