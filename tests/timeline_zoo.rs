//! Plan-introspection acceptance across the model zoo: for every
//! registered strategy (portfolio included) on all four zoo workloads,
//! the timeline produced by replaying the plan's allocations must agree
//! EXACTLY with the plan's own `PlanStats` — the same peak the solver
//! claimed, and fragmentation as the pool bytes the peak never touches.
//! `stalloc explain` is only trustworthy if this replay is not an
//! estimate.

use stalloc_core::{
    analyze_plan, profile_trace, render_svg, synthesize, StrategyChoice, SynthConfig,
};
use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};

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

#[test]
fn timeline_peak_and_fragmentation_agree_exactly_with_plan_stats() {
    for (name, job) in zoo() {
        let trace = job.build_trace().unwrap();
        let profile = profile_trace(&trace, 1).unwrap();
        for strategy in StrategyChoice::ALL {
            let config = SynthConfig {
                strategy,
                ..SynthConfig::default()
            };
            let plan = synthesize(&profile, &config);
            plan.validate().unwrap();
            let t = analyze_plan(&plan, 5);

            assert_eq!(
                t.peak_live_bytes, plan.stats.peak_static_demand,
                "{name}/{strategy}: replayed peak vs PlanStats"
            );
            assert_eq!(
                t.fragmentation,
                plan.pool_size - plan.stats.peak_static_demand,
                "{name}/{strategy}: fragmentation is the unreached pool tail"
            );
            assert_eq!(t.pool_size, plan.pool_size, "{name}/{strategy}");

            // The peak tick really holds peak bytes, and no sampled tick
            // exceeds the peak or the pool.
            assert!(
                t.samples
                    .iter()
                    .all(|s| s.live_bytes <= t.peak_live_bytes && s.live_bytes <= t.pool_size),
                "{name}/{strategy}: samples bounded by the peak"
            );
            // Live + free always covers the whole pool at a sampled tick.
            assert!(
                t.samples
                    .iter()
                    .all(|s| s.live_bytes + s.free_bytes == t.pool_size),
                "{name}/{strategy}: live + free == pool"
            );

            // The SVG view renders on every zoo plan without panicking
            // and stays a standalone document.
            let svg = render_svg(&plan, &t);
            assert!(svg.starts_with("<svg"), "{name}/{strategy}");
            assert!(svg.trim_end().ends_with("</svg>"), "{name}/{strategy}");
        }
    }
}
