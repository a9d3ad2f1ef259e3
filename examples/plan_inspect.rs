//! Plan inspection: run the offline pipeline by hand, validate the plan,
//! serialize it to JSON (the paper's standalone-tool workflow, §8), and
//! print the synthesis statistics.
//!
//! Run with: `cargo run --release --example plan_inspect`

use stalloc_core::{profile_trace, synthesize, Plan, SynthConfig};
use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};

fn main() {
    let job = TrainJob::new(
        ModelSpec::gpt2_345m(),
        ParallelConfig::new(1, 4, 1).with_vpp(2),
        OptimConfig::r(),
    )
    .with_mbs(8)
    .with_seq(1024)
    .with_microbatches(8);
    let trace = job.build_trace().unwrap();

    // Offline phase: profile one iteration, synthesize the plan.
    let profile = profile_trace(&trace, 1).expect("iteration 1 exists");
    println!(
        "profiled: {} static ({} persistent) + {} dynamic requests, {} phases",
        profile.statics.len(),
        profile.init_count,
        profile.dynamics.len(),
        profile.num_phases
    );

    let plan = synthesize(&profile, &SynthConfig::default());
    plan.validate().expect("plan is sound");
    let s = plan.stats;
    println!("plan synthesis:");
    println!("  HomoPhase groups   : {}", s.phase_groups);
    println!("  memory-layers      : {}", s.layers);
    println!("  gap insertions     : {}", s.gap_inserted);
    println!("  HomoLayer groups   : {}", s.homolayer_groups);
    println!(
        "  pool               : {:.3} GiB (peak demand {:.3} GiB, packing {:.3})",
        s.pool_size as f64 / (1u64 << 30) as f64,
        s.peak_static_demand as f64 / (1u64 << 30) as f64,
        s.packing_efficiency()
    );

    // Render the plan's occupancy in the time x address plane.
    println!(
        "
{}",
        stalloc_core::render_plan(&plan, 16, 72)
    );

    // Round-trip through JSON, as the pluggable-allocator deployment does.
    let json = plan.to_json();
    let restored = Plan::from_json(&json).expect("round-trips");
    assert_eq!(restored.pool_size, plan.pool_size);
    println!(
        "  serialized plan    : {} bytes of JSON, round-trips OK",
        json.len()
    );
}
