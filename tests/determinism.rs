//! Plan synthesis must be a pure function of its inputs: the same
//! `ProfiledRequests` must yield byte-identical plans on every call.
//! This guards future parallelisation of the planner — any nondeterminism
//! (hash-map iteration order, unstable sorts on equal keys, thread
//! scheduling) shows up here as a serialized-plan mismatch.

use stalloc_core::{fingerprint_job, profile_trace, synthesize, SynthConfig};
use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};

fn synth_configs() -> Vec<SynthConfig> {
    vec![
        SynthConfig::default(),
        SynthConfig {
            enable_gap_insertion: false,
            ..SynthConfig::default()
        },
        SynthConfig {
            ascending_sizes: true,
            ..SynthConfig::default()
        },
    ]
}

fn assert_deterministic(job: TrainJob, label: &str) {
    let trace = job.build_trace().unwrap();
    let profile = profile_trace(&trace, 1).unwrap();
    for (ci, config) in synth_configs().into_iter().enumerate() {
        let first = synthesize(&profile, &config).to_json();
        let second = synthesize(&profile, &config).to_json();
        assert_eq!(
            first, second,
            "{label}: config #{ci} produced two different plans from one profile"
        );
    }
}

#[test]
fn dense_plans_are_deterministic() {
    assert_deterministic(
        TrainJob::new(
            ModelSpec::gpt2_345m(),
            ParallelConfig::new(1, 4, 1),
            OptimConfig::r(),
        )
        .with_mbs(2)
        .with_seq(512)
        .with_microbatches(8)
        .with_iterations(2),
        "gpt2/R",
    );
}

#[test]
fn vpp_plans_are_deterministic() {
    assert_deterministic(
        TrainJob::new(
            ModelSpec::gpt2_345m(),
            ParallelConfig::new(1, 4, 1).with_vpp(2),
            OptimConfig::naive(),
        )
        .with_mbs(2)
        .with_seq(512)
        .with_microbatches(8)
        .with_iterations(2),
        "gpt2/naive/vpp",
    );
}

#[test]
fn moe_plans_are_deterministic() {
    // MoE profiles include dynamic requests, exercising the Dynamic
    // Reusable Space grouping as well as the static planner.
    assert_deterministic(
        TrainJob::new(
            ModelSpec::qwen15_moe_a27b(),
            ParallelConfig::new(2, 2, 2).with_ep(4),
            OptimConfig::naive(),
        )
        .with_mbs(1)
        .with_seq(512)
        .with_microbatches(4)
        .with_iterations(2),
        "moe/naive",
    );
}

#[test]
fn rebuilt_traces_profile_identically() {
    // Same job spec (same seed) ⇒ same trace ⇒ same profile ⇒ same plan,
    // end to end across two independent builds.
    let job = || {
        TrainJob::new(
            ModelSpec::gpt2_345m(),
            ParallelConfig::new(1, 4, 1),
            OptimConfig::r(),
        )
        .with_mbs(2)
        .with_seq(512)
        .with_microbatches(8)
        .with_iterations(2)
        .with_seed(17)
    };
    let plan_a = {
        let trace = job().build_trace().unwrap();
        synthesize(&profile_trace(&trace, 1).unwrap(), &SynthConfig::default()).to_json()
    };
    let plan_b = {
        let trace = job().build_trace().unwrap();
        synthesize(&profile_trace(&trace, 1).unwrap(), &SynthConfig::default()).to_json()
    };
    assert_eq!(plan_a, plan_b, "two builds of the same seeded job diverged");
}

#[test]
fn portfolio_cached_plans_are_byte_identical() {
    // Two independent portfolio runs of the same job, cached into two
    // independent stores, must persist byte-identical artifacts — the
    // race's thread scheduling must never leak into the winner, or a
    // shared plan cache would serve different plans for one fingerprint.
    use stalloc_core::StrategyChoice;
    use stalloc_store::{synthesize_cached, CacheOutcome, PlanStore};

    let trace = TrainJob::new(
        ModelSpec::gpt2_345m(),
        ParallelConfig::new(1, 4, 1).with_vpp(2),
        OptimConfig::r(),
    )
    .with_mbs(2)
    .with_seq(512)
    .with_microbatches(8)
    .with_iterations(2)
    .build_trace()
    .unwrap();
    let profile = profile_trace(&trace, 1).unwrap();
    let config = SynthConfig {
        strategy: StrategyChoice::Portfolio,
        ..SynthConfig::default()
    };

    let base = std::env::temp_dir().join(format!("stalloc-det-portfolio-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let store_a = PlanStore::open(base.join("a")).unwrap();
    let store_b = PlanStore::open(base.join("b")).unwrap();

    let (plan_a, fp_a, out_a) = synthesize_cached(
        &profile,
        &config,
        &store_a,
        stalloc_solver::synthesize_strategy,
    )
    .unwrap();
    let (plan_b, fp_b, out_b) = synthesize_cached(
        &profile,
        &config,
        &store_b,
        stalloc_solver::synthesize_strategy,
    )
    .unwrap();
    assert_eq!(out_a, CacheOutcome::Miss);
    assert_eq!(out_b, CacheOutcome::Miss);
    assert_eq!(fp_a, fp_b, "portfolio jobs fingerprint identically");
    assert_eq!(plan_a, plan_b);
    assert_ne!(
        fp_a,
        stalloc_core::fingerprint_job(&profile, &SynthConfig::default()),
        "portfolio and baseline are distinct cache keys"
    );

    let bytes_a = std::fs::read(store_a.plan_path(fp_a)).unwrap();
    let bytes_b = std::fs::read(store_b.plan_path(fp_b)).unwrap();
    assert_eq!(bytes_a, bytes_b, "cached artifacts diverged");

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn fingerprints_are_stable_across_runs() {
    // The plan cache keys on the job fingerprint, so it must be a pure
    // function of the profiled content: two independent builds of the
    // same seeded job agree, every synthesis config yields a distinct
    // digest, and touching the profile changes it.
    let job = || {
        TrainJob::new(
            ModelSpec::gpt2_345m(),
            ParallelConfig::new(1, 4, 1),
            OptimConfig::r(),
        )
        .with_mbs(2)
        .with_seq(512)
        .with_microbatches(8)
        .with_iterations(2)
        .with_seed(17)
    };
    let profile_a = profile_trace(&job().build_trace().unwrap(), 1).unwrap();
    let profile_b = profile_trace(&job().build_trace().unwrap(), 1).unwrap();

    let mut digests = Vec::new();
    for config in synth_configs() {
        let fp_a = fingerprint_job(&profile_a, &config);
        let fp_b = fingerprint_job(&profile_b, &config);
        assert_eq!(fp_a, fp_b, "fingerprint diverged across runs: {config:?}");
        assert_eq!(fp_a.to_hex().len(), 32);
        digests.push(fp_a);
    }
    digests.sort_unstable();
    digests.dedup();
    assert_eq!(
        digests.len(),
        synth_configs().len(),
        "distinct configs must map to distinct fingerprints"
    );

    let mut tweaked = profile_a.clone();
    tweaked.statics[0].size += 512;
    assert_ne!(
        fingerprint_job(&profile_a, &SynthConfig::default()),
        fingerprint_job(&tweaked, &SynthConfig::default()),
        "profile content must be part of the fingerprint"
    );
}
